//go:build !unix

package webgraph

import "os"

// mmapFile on platforms without syscall.Mmap reads the whole file into
// memory: a mapped graph still works, it just loses the O(1) open
// and demand paging.
func mmapFile(path string) ([]byte, func() error, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
