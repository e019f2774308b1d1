package workload

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// runRows runs each named row of the table and fails on the first step
// or check that fails. The part of a name after "/" is its subtest.
func runRows(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		s, ok := rows[name]
		if !ok {
			t.Fatalf("no row %q in the table", name)
		}
		run := func(t *testing.T) {
			start := time.Now()
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d steps and checks held in %v", name, len(s.steps), time.Since(start).Round(time.Millisecond))
		}
		if _, sub, ok := strings.Cut(name, "/"); ok {
			t.Run(sub, run)
		} else {
			run(t)
		}
	}
}

// parseCalls parses a file and counts its calls by name (pkg.Func or
// Func).
func parseCalls(t *testing.T, file string) (*ast.File, map[string]int) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := fn.X.(*ast.Ident); ok {
					got[pkg.Name+"."+fn.Sel.Name]++
				}
			case *ast.Ident:
				got[fn.Name]++
			}
		}
		return true
	})
	return f, got
}

func sources(t *testing.T, tests bool) []string {
	t.Helper()
	all, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, file := range all {
		if strings.HasSuffix(file, "_test.go") == tests {
			out = append(out, file)
		}
	}
	return out
}

// TestOneFederationHarness: every row runs over federation.go. Nothing
// else builds hubs or a cluster or parses a dial list. A new file must be
// listed here. (The root package's TestSleepCensus pins the sleeps.)
func TestOneFederationHarness(t *testing.T) {
	guarded := []string{"cluster.New", "immunity.NewExchange", "strings.Split"}
	want := map[string]map[string]int{
		"federation.go": {"cluster.New": 1, "immunity.NewExchange": 1, "strings.Split": 1},
		"scenario.go":   {},
		"devices.go":    {},
		"rows.go":       {},
		"micro.go":      {},
	}
	for _, file := range sources(t, false) {
		calls, ok := want[file]
		if !ok {
			t.Errorf("%s is not listed: say which harness calls it may make", file)
			continue
		}
		_, got := parseCalls(t, file)
		for _, name := range guarded {
			if got[name] != calls[name] {
				t.Errorf("%s calls %s %d times, want %d: hubs and dial lists belong to the federation harness",
					file, name, got[name], calls[name])
			}
		}
	}
}

// TestStepVocabulary: every step constructor is used by the table
// (rows.go), and every row of the table is run by a test.
func TestStepVocabulary(t *testing.T) {
	_, used := parseCalls(t, "rows.go")
	for _, file := range sources(t, false) {
		f, _ := parseCalls(t, file)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == "step" && used[fn.Name.Name] == 0 {
				t.Errorf("step constructor %s (%s) is used by no row", fn.Name.Name, file)
			}
		}
	}
	var ran []string
	for _, file := range sources(t, true) {
		f, _ := parseCalls(t, file)
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "runRows" {
					for _, arg := range call.Args {
						if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							name, _ := strconv.Unquote(lit.Value)
							ran = append(ran, name)
						}
					}
				}
			}
			return true
		})
	}
	for name := range rows {
		if !slices.Contains(ran, name) {
			t.Errorf("row %q is run by no test", name)
		}
	}
}

// TestArmedOverCountsOnlyThisRun: a hub that already armed a signature
// before the row started gives the arming wait nothing. Against it, a
// row that reports nothing times out — where a wait for every epoch to
// be at least 1 would return at once — and a row that arms one
// signature of its own passes.
func TestArmedOverCountsOnlyThisRun(t *testing.T) {
	f, err := newFederation(fedConfig{name: "pre-armed hub", threshold: 1, tcp: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	fleet, err := dialFleet(f.transports(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.close()
	if err := fleet.reportEach([]wire.Signature{wire.FromCore(propagationSig(1000))}); err != nil {
		t.Fatal(err)
	}
	w := waiter{10 * time.Second, f}
	if _, err := w.until("the unrelated signature to arm", func() bool { return f.hubs[0].ArmedCount() >= 1 }); err != nil {
		t.Fatal(err)
	}

	idle := Scenario{Dial: f.servers[0].Addr(), Timeout: 5 * time.Millisecond, fedConfig: fedConfig{name: "idle"},
		steps: []step{armedOver(1)}}
	if out, err := idle.Run(); err == nil || !strings.Contains(err.Error(), "timed out waiting for "+hubsArmed) {
		t.Fatalf("a row that armed nothing: want a timeout, got %v (armed %d)", err, out.Armed)
	}
	one := Scenario{Dial: f.servers[0].Addr(), Timeout: 10 * time.Second, fedConfig: fedConfig{name: "one"},
		devices: 1, sigs: 1, steps: []step{attach(0), report(0, 1), armedOver(1)}}
	if out, err := one.Run(); err != nil || out.Armed != 1 {
		t.Fatalf("a row that armed one signature: armed %d, %v", out.Armed, err)
	}
}
