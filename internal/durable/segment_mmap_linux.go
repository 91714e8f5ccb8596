//go:build linux

package durable

import (
	"os"
	"syscall"
)

// mapFile reserves n bytes for f with fallocate, so the disk backs every page
// before a store touches it, and maps them shared and writable. If either
// step fails — a filesystem without fallocate included — the file is cut back
// to its size bytes of records and the caller takes the write path.
func mapFile(f *os.File, size, n int64) ([]byte, error) {
	fd := int(f.Fd())
	err := syscall.Fallocate(fd, 0, 0, n)
	var data []byte
	if err == nil {
		data, err = syscall.Mmap(fd, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	}
	if err != nil {
		f.Truncate(size)
		return nil, err
	}
	return data, nil
}

func unmapFile(data []byte) error { return syscall.Munmap(data) }
