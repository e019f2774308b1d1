//go:build !unix

package immunity

import "os"

// readLog reads the provenance log onto the heap where it cannot be
// mapped; release is a no-op.
func readLog(path string) (b []byte, release func(), err error) {
	b, err = os.ReadFile(path)
	return b, func() {}, err
}
