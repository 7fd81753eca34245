//go:build unix

package webgraph

import (
	"fmt"
	"os"
	"syscall"
)

// mmapFile maps path read-only and returns the bytes plus a release
// function. Loading is O(1) in the file size: pages fault in as the
// arrays are touched, and the OS may drop clean pages under memory
// pressure, which is the whole point of a mapped graph.
func mmapFile(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("webgraph: %s too large to map (%d bytes)", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("webgraph: mmap %s: %w", path, err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
