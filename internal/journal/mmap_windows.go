package journal

import (
	"os"
	"syscall"
	"unsafe"
)

// mapGranularity is the alignment a view's file offset needs: the
// allocation granularity, 64 KiB on every Windows release.
var mapGranularity int64 = 64 << 10

// mmap maps n bytes of f from off as a writable view. The view keeps the
// mapping object alive, so its handle is closed at once.
func mmap(f *os.File, off int64, n int) ([]byte, error) {
	h, err := syscall.CreateFileMapping(syscall.Handle(f.Fd()), nil, syscall.PAGE_READWRITE, 0, 0, nil)
	if err != nil {
		return nil, os.NewSyscallError("CreateFileMapping", err)
	}
	addr, err := syscall.MapViewOfFile(h, syscall.FILE_MAP_WRITE, uint32(off>>32), uint32(off), uintptr(n))
	syscall.CloseHandle(h)
	if err != nil {
		return nil, os.NewSyscallError("MapViewOfFile", err)
	}
	return unsafe.Slice(*(**byte)(unsafe.Pointer(&addr)), n), nil
}

// munmap flushes a view mmap made to the file and unmaps it.
func munmap(b []byte) error {
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	if err := syscall.FlushViewOfFile(addr, uintptr(len(b))); err != nil {
		return os.NewSyscallError("FlushViewOfFile", err)
	}
	return os.NewSyscallError("UnmapViewOfFile", syscall.UnmapViewOfFile(addr))
}

// datasync writes the dirty pages of view, then the rest of f, to stable
// storage: a view's stores reach the disk only through FlushViewOfFile.
func datasync(f *os.File, view []byte) error {
	if len(view) > 0 {
		if err := syscall.FlushViewOfFile(uintptr(unsafe.Pointer(unsafe.SliceData(view))), uintptr(len(view))); err != nil {
			return os.NewSyscallError("FlushViewOfFile", err)
		}
	}
	return f.Sync()
}
