package dimmunix_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEmbeddersCallOnlyEnterAndExit keeps the embedding interface at the
// paper's two interception points: outside internal/core, whose tests
// drive the engine's parts one by one, and the engine's benchmarks
// (bench/ and the root bench_test.go ablations), which time them, no Go
// file, test files included, calls a method named after one of the parts
// core.Enter and core.Exit compose. The check is by name, so it also
// catches a part that is unexported today being re-exported and called.
func TestEmbeddersCallOnlyEnterAndExit(t *testing.T) {
	parts := map[string]bool{
		"Request": true, "Acquired": true, "Release": true, "NewLockNode": true,
		"enterFast": true, "abort": true,
	}
	skip := map[string]bool{
		filepath.Join("internal", "core"): true, "bench": true,
		".git": true, ".bench_build": true, "testdata": true,
	}
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skip[path] || skip[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "bench_test.go" {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && parts[sel.Sel.Name] {
					t.Errorf("%s calls %s: an embedder drives the core through Enter and Exit", fset.Position(call.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go file checked")
	}
}
