package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
	"time"
)

// No timed section of the driver may poll: a sleeping or yielding wait
// quantises every latency it measures. The only sleep allowed in the
// package is pollUntil's, and pollUntil may be called only from the two
// functions that boot a cluster, where the lease and the peer links
// offer no callback to wait on.
func TestNoSleepOrGoschedOutsidePollUntil(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pollers := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					pkg, _ := fun.X.(*ast.Ident)
					if pkg == nil {
						return true
					}
					callee := pkg.Name + "." + fun.Sel.Name
					if (callee == "time.Sleep" || callee == "runtime.Gosched") && fn.Name.Name != "pollUntil" {
						t.Errorf("%s: %s calls %s", fset.Position(call.Pos()), fn.Name.Name, callee)
					}
				case *ast.Ident:
					if fun.Name == "pollUntil" {
						pollers[fn.Name.Name] = true
					}
				}
				return true
			})
		}
	}
	for fn := range pollers {
		if fn != "boot" && fn != "bootLoopbackCluster" {
			t.Errorf("%s calls pollUntil; only the cluster boot paths may", fn)
		}
	}
	if len(pollers) == 0 {
		t.Error("found no pollUntil caller: the scan is not looking at the package")
	}
}

func TestDeadlineIsSharedByAnOpsWaits(t *testing.T) {
	d := newDeadline()
	ch := make(chan int, 2)
	ch <- 1
	ch <- 2
	d.arm()
	for want := 1; want <= 2; want++ {
		if got, ok := recv(d, ch); !ok || got != want {
			t.Fatalf("recv = %d, %v; want %d, true", got, ok, want)
		}
	}
	// An expired deadline reports failure instead of blocking; re-arming
	// makes it usable again.
	d.t.Reset(time.Millisecond)
	if _, ok := recv(d, ch); ok {
		t.Fatal("recv on an empty channel succeeded")
	}
	d.arm()
	ch <- 3
	if got, ok := recv(d, ch); !ok || got != 3 {
		t.Fatalf("after re-arm recv = %d, %v; want 3, true", got, ok)
	}
}
