package immunity

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRedialBackoffRule: the redial rule as a table. After k sessions
// in a row that died young — or handshakes that failed, which count as
// a session of no uptime — the k-th wait is floor·2^(k-1) up to the
// ceiling; only a session that outlived minUptime resets it, and its
// redial is immediate. (The machine jitters each wait down to half at
// most; cluster's TestRedialHandshakeTable holds both tiers' real loops
// to that bound.)
func TestRedialBackoffRule(t *testing.T) {
	backoff := backoffMin
	for k := 1; k <= 12; k++ {
		uptime := time.Duration(0) // a failed handshake
		if k%2 == 0 {
			uptime = minUptime - time.Millisecond // accepted, then dropped young
		}
		var wait time.Duration
		wait, backoff = nextBackoff(backoff, uptime)
		want := backoffMin << (k - 1)
		if want > backoffMax {
			want = backoffMax
		}
		if wait != want {
			t.Fatalf("wait %d = %v, want %v", k, wait, want)
		}
	}
	if backoff != backoffMax {
		t.Fatalf("backoff settled at %v, want the ceiling %v", backoff, backoffMax)
	}
	wait, backoff := nextBackoff(backoff, minUptime)
	if wait != 0 || backoff != backoffMin {
		t.Fatalf("after a healthy session: wait %v, backoff %v; want an immediate redial at the floor", wait, backoff)
	}
	if wait, _ := nextBackoff(backoff, 0); wait != backoffMin {
		t.Fatalf("first wait after the reset = %v, want the floor", wait)
	}
}

// TestOneSessionMachine keeps the handshake written once: outside
// redial.go no non-test file under internal/ or cmd/ may declare an ack
// channel, a hello timeout or a dial-attempt type — the three things
// every hand-rolled copy of the machine started with.
func TestOneSessionMachine(t *testing.T) {
	for _, root := range []string{"..", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") ||
				strings.HasSuffix(path, "_test.go") || filepath.Base(path) == "redial.go" {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ChanType:
					if sel, ok := n.Value.(*ast.SelectorExpr); ok && sel.Sel.Name == "Ack" {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "wire" {
							t.Errorf("%s declares a chan wire.Ack: handshakes go through immunity.Redialer", path)
						}
					}
				case *ast.Ident:
					if n.Name == "helloTimeout" || n.Name == "dialAttempt" {
						t.Errorf("%s names %s: handshakes go through immunity.Redialer", path, n.Name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
