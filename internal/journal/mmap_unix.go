//go:build unix

package journal

import (
	"os"
	"syscall"
)

// mapGranularity is the alignment a mapping's file offset needs.
var mapGranularity = int64(os.Getpagesize())

// mmap maps n bytes of f from off, shared and writable: a store into the
// mapping is a store into the file's page cache.
func mmap(f *os.File, off int64, n int) (b []byte, err error) {
	rc, err := f.SyscallConn()
	if err != nil {
		return nil, err
	}
	if cerr := rc.Control(func(fd uintptr) {
		b, err = syscall.Mmap(int(fd), off, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	}); cerr != nil {
		return nil, cerr
	}
	return b, err
}

// munmap removes a mapping mmap made. What was stored through it stays in
// the page cache for the next datasync.
func munmap(b []byte) error {
	return syscall.Munmap(b)
}
