package dimmunix_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// claim is one row of the claims ledger: something the repository says
// holds, the tests that check it and the benchmarks and metrics that give
// its number. A test or benchmark is named "dir:Func", dir relative to
// the module root ("." for the root package); a metric is
// "workload/metric" of BENCHMARK.json.
type claim struct {
	id        string
	statement string
	tests     []string
	numbers   []string // benchmarks, "dir:BenchmarkX"
	metrics   []string // bench/ metrics, "workload/metric"
}

// claims is the ledger. Deleting or renaming a test, benchmark or metric a
// row names fails TestClaims until the row names what checks the claim
// now.
var claims = []claim{
	{
		id:        "E1",
		statement: "a deadlock that froze the phone once is avoided after the reboot: the race completes with a yield",
		tests:     []string{".:TestPhoneE1ThroughFacade"},
		numbers:   []string{".:BenchmarkE1DeadlockImmunity"},
	},
	{
		id:        "F1",
		statement: "one phone's detection immunizes the fleet: every process on every phone installs the signature, and another phone is spared",
		tests:     []string{"internal/workload:TestRunFleetImmunityThresholdOne", "internal/workload:TestRunFleetImmunity"},
		numbers:   []string{".:BenchmarkFleetE1"},
	},
	{
		id:        "phone-path cost",
		statement: "what an uncontended synchronized block costs under Dimmunix against vanilla: at one P (phone-sync, gated) and at one and two Ps (BenchmarkSyncProcs, report only)",
		numbers:   []string{".:BenchmarkSyncProcs"},
		metrics:   []string{"phone-sync/ops_per_s"},
	},
	{
		id:        "fast path ≡ exclusive path",
		statement: "the shared engine sections decide exactly as Request, Acquired and Release under the exclusive lock, and as the reference model",
		tests: []string{
			"internal/core:TestFastPathConditions",
			"internal/core:TestFastReleaseConditions",
			"internal/core:TestEngineSchedules",
			"internal/core:FuzzEngineSchedule",
			"internal/core:TestEngineEquivalence",
		},
	},
	{
		id:        "sync counting",
		statement: "SyncCount and Stats count every completed monitorenter exactly once, and never go down while threads exit under a live sampler",
		tests: []string{
			"internal/vm:TestSyncCountCountsEveryEnter",
			"internal/vm:TestSyncCountSampledWhileThreadsExit",
			"internal/apps:TestReplayRunsAndStops",
		},
	},
}

// TestClaims fails when a row of the ledger names a test, benchmark or
// metric that does not exist, and prints the ledger with -v.
func TestClaims(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &spec)
	metrics := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			metrics[w.Name+"/"+m.Name] = true
		}
	}
	funcs := map[string]map[string]bool{} // dir → the test files' top-level funcs
	exists := func(ref string) bool {
		dir, name, ok := strings.Cut(ref, ":")
		if !ok {
			return false
		}
		if funcs[dir] == nil {
			funcs[dir] = testFuncs(t, dir)
		}
		return funcs[dir][name]
	}
	for _, c := range claims {
		if len(c.tests)+len(c.numbers)+len(c.metrics) == 0 {
			t.Errorf("claim %q: nothing checks it", c.id)
		}
		for _, ref := range slices.Concat(c.tests, c.numbers) {
			if !exists(ref) {
				t.Errorf("claim %q names %s: no such test or benchmark", c.id, ref)
			}
		}
		for _, m := range c.metrics {
			if !metrics[m] {
				t.Errorf("claim %q names %s: no such workload metric in BENCHMARK.json", c.id, m)
			}
		}
		t.Logf("%-27s %s\n\tchecked by: %s\n\tnumbers: %s", c.id, c.statement,
			strings.Join(c.tests, ", "), strings.Join(slices.Concat(c.numbers, c.metrics), ", "))
	}
}

// testFuncs returns the names of the top-level functions declared in the
// _test.go files of one directory.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				out[fn.Name.Name] = true
			}
		}
	}
	return out
}
