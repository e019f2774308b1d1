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
// its number, and the mutants of the code behind it that a test kills. A
// test or benchmark is named "dir:Func", dir relative to the module root
// ("." for the root package); a metric is "workload/metric" of
// BENCHMARK.json.
type claim struct {
	id        string
	statement string
	tests     []string
	numbers   []string // benchmarks, "dir:BenchmarkX"
	metrics   []string // bench/ metrics, "workload/metric"
	mutants   []mutant
}

// mutant is a change to the code behind a claim that breaks it, and the
// deterministic test that fails on it.
type mutant struct {
	change   string
	killedBy string // "dir:TestX"
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
		id: "E1 over generated inversions",
		statement: "over 500 seeded k-cycles (k = 2..4; plain, non-LIFO exits, with a decoy, or with a hold re-acquired in Object.wait), run 1 detects once with one signature, " +
			"run 2 booted from its history completes with yields and no deadlock, and a decoy alone in every outer position never yields",
		tests: []string{"internal/vm:TestGeneratedE1"},
		mutants: []mutant{
			{"Monitor.wait re-acquiring by the monitor's CAS alone, skipping the request (core.Enter)", "internal/vm:TestGeneratedE1"},
		},
	},
	{
		id:        "F1",
		statement: "one phone's detection immunizes the fleet: every process on every phone installs the signature, and another phone is spared",
		tests: []string{
			"internal/workload:TestRunFleetImmunityThresholdOne", "internal/workload:TestRunFleetImmunity",
			"internal/workload:TestFleetImmunityTransportEquivalence", "internal/workload:TestFleetImmunityFederationEquivalence",
		},
		numbers: []string{".:BenchmarkFleetE1"},
	},
	{
		id: "phone-path cost",
		statement: "what an uncontended synchronized block costs under Dimmunix against vanilla: at one P (phone-sync, gated) and at one and two Ps (BenchmarkSyncProcs, report only); " +
			"an unarmed block makes 4 locked instructions (enter: the engine's read pair and the monitor CAS; exit: the monitor's release store), " +
			"and core.Enter's shared section calls only the runtime's tryLock: no acquire, no thread-state hook",
		tests:   []string{"internal/core:TestEnterSharedSectionCallsOnlyTryLock", "internal/vm:TestEnterFastStaysRunnable"},
		numbers: []string{".:BenchmarkSyncProcs"},
		metrics: []string{"phone-sync/ops_per_s"},
	},
	{
		id: "fast path ≡ exclusive path",
		statement: "the shared engine sections and the lock-free exit decide exactly as Request, Acquired and Release under the exclusive lock, and as the reference model; " +
			"the schedules reach the state between a runtime CAS and Acquired, put installs between a lock-free exit's store and its re-check, " +
			"and drive the composed core.Enter, whose failed acquire is aborted and whose blocked hook runs before the request",
		tests: []string{
			"internal/core:TestEnterAbortsAFailedAcquire",
			"internal/core:TestEnterReadsBlockedThroughAYield",
			"internal/vm:TestEnterOnADyingProcessUndoesTheHold",
			"internal/android:TestYieldingThreadReadsBlockedInANR",
			"internal/core:TestFastPathConditions",
			"internal/core:TestFastReleaseConditions",
			"internal/core:TestEngineSchedules",
			"internal/core:FuzzEngineSchedule",
			"internal/core:TestEngineEquivalence",
			"internal/core:TestLockFreeExitReconcilesARacingInstall",
			"internal/core:TestEnterFastNeverOverwritesAPhantom",
			"internal/core:TestCASBeforeAcquiredReadsAsRunning",
			"internal/core:TestStressLockFreeExitRacesInstall",
		},
		mutants: []mutant{
			{"Core.exited without its post-store re-load of inHistory", "internal/core:TestLockFreeExitReconcilesARacingInstall"},
			{"EnterFast overwriting a non-nil acqEntry (no phantom branch)", "internal/core:TestEnterFastNeverOverwritesAPhantom"},
			{"Node.holder taking a CAS-before-Acquired thread for the holder", "internal/core:TestCASBeforeAcquiredReadsAsRunning"},
			{"core.Enter skipping the abort after a failed acquire", "internal/core:TestEnterAbortsAFailedAcquire"},
			{"Monitor.enter dropping the undo of a CAS that won on a dying process", "internal/vm:TestEnterOnADyingProcessUndoesTheHold"},
			{"core.Enter telling the blocked hook only after the Request", "internal/core:TestEnterReadsBlockedThroughAYield"},
		},
	},
	{
		id:        "two interception points",
		statement: "an embedder drives the core through core.Enter and core.Exit only, the paper's lockMonitor and unlockMonitor; no non-test code outside internal/core and bench/ calls the parts they compose",
		tests:     []string{".:TestEmbeddersCallOnlyEnterAndExit"},
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
		var killed []string
		for _, m := range c.mutants {
			if !exists(m.killedBy) {
				t.Errorf("claim %q: mutant %q is killed by %s: no such test", c.id, m.change, m.killedBy)
			}
			killed = append(killed, m.change+" → "+m.killedBy)
		}
		t.Logf("%-27s %s\n\tchecked by: %s\n\tnumbers: %s\n\tmutants: %s", c.id, c.statement,
			strings.Join(c.tests, ", "), strings.Join(slices.Concat(c.numbers, c.metrics), ", "), strings.Join(killed, "; "))
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
