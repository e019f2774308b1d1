package dimmunix_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// sleepCensus pins the time.Sleep calls of every Go file in the module
// outside bench/ (a module of its own), tests included. A sleep that
// waits for something to happen is a guess at how long it takes; wait on
// the event instead. Lower a count when a sleep goes.
var sleepCensus = map[string]int{
	"cmd/immunityd/drill_test.go":               2,
	"dimmunix_test.go":                          1,
	"internal/apps/app.go":                      1,
	"internal/core/harness_test.go":             1,
	"internal/immunity/authfabric_test.go":      1,
	"internal/immunity/batch_test.go":           2,
	"internal/immunity/cluster/cluster_test.go": 4,
	"internal/immunity/cluster/tenant_test.go":  2,
	"internal/immunity/exchange_test.go":        4,
	"internal/immunity/service_test.go":         2,
	"internal/immunity/tcp_test.go":             1,
	"internal/metrics/meter_test.go":            1,
	"internal/vm/monitor_test.go":               1,
	"internal/vm/native_test.go":                1,
	"internal/vm/object.go":                     1,
	"internal/vm/thread_test.go":                1,
	"internal/vm/zygote_test.go":                1,
	"internal/workload/devices.go":              1,
	"internal/workload/federation.go":           1,
	"internal/workload/micro.go":                1,
	"internal/workload/rows.go":                 1,
	"internal/workload/scenario.go":             1,
	"platform_test.go":                          1,
}

// TestSleepCensus fails when a file's time.Sleep count rises above the
// census, and when it falls without the census being lowered to match.
func TestSleepCensus(t *testing.T) {
	got := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		n, err := countSleeps(path)
		if n > 0 {
			got[filepath.ToSlash(path)] = n
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for file, n := range got {
		if want := sleepCensus[file]; n > want {
			t.Errorf("%s calls time.Sleep %d times, census allows %d: wait on the event, not the clock", file, n, want)
		}
	}
	for file, want := range sleepCensus {
		if n := got[file]; n < want {
			t.Errorf("%s calls time.Sleep %d times, census says %d: lower the census", file, n, want)
		}
	}
}

// countSleeps counts the calls of the time package's Sleep in one file,
// under whatever name the file imports the package.
func countSleeps(path string) (int, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return 0, err
	}
	pkg := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			pkg = "time"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return 0, nil
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
					n++
				}
			}
		}
		return true
	})
	return n, nil
}
