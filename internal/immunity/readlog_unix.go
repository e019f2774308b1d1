//go:build unix

package immunity

import (
	"os"
	"syscall"
)

// readLog maps the provenance log read-only; release unmaps it. A
// restart's load then puts on the heap only the records it keeps, not a
// copy of the whole log, dead records included, that is garbage as soon
// as it is decoded. The store is the log's only writer and holds its
// lock throughout, so the file cannot shrink under the mapping. A
// missing or empty file reads as nil.
func readLog(path string) (b []byte, release func(), err error) {
	release = func() {}
	file, err := os.Open(path)
	if err != nil {
		return nil, release, err
	}
	defer file.Close()
	st, err := file.Stat()
	if err != nil || st.Size() == 0 {
		return nil, release, err
	}
	if b, err = syscall.Mmap(int(file.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED); err != nil {
		return nil, release, err
	}
	return b, func() { syscall.Munmap(b) }, nil
}
