package workload

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestOneFederationHarness: chaos, partition, storm and fleet immunity
// are scripts over federation.go. None builds its own hubs or cluster,
// parses a dial list, or waits in a sleep loop of its own; the sleeps
// they keep pace the scenario rather than wait for it.
func TestOneFederationHarness(t *testing.T) {
	guarded := []string{"cluster.New", "immunity.NewExchange", "strings.Split", "time.Sleep"}
	want := map[string]map[string]int{
		"federation.go": {"cluster.New": 1, "immunity.NewExchange": 1, "strings.Split": 1, "time.Sleep": 1},
		"chaos.go":      {},
		"partition.go":  {"time.Sleep": 1}, // the flap blink
		"storm.go":      {"time.Sleep": 1}, // the ramp's warmup pacing
		"immunity.go":   {"time.Sleep": 1}, // the gating window
	}
	for file, calls := range want {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Error(err)
			continue
		}
		got := make(map[string]int)
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok {
						got[pkg.Name+"."+sel.Sel.Name]++
					}
				}
			}
			return true
		})
		for _, name := range guarded {
			if got[name] != calls[name] {
				t.Errorf("%s calls %s %d times, want %d: hubs, dial lists and polling belong to the federation harness",
					file, name, got[name], calls[name])
			}
		}
	}
}
