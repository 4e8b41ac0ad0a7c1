package journal

import (
	"os"
	"syscall"
)

// datasync writes f's dirty pages, those stored through a mapping
// included, to stable storage with fdatasync: the WAL's length changes at
// a snapshot only, so there is no metadata to sync with each batch.
func datasync(f *os.File, _ []byte) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	if cerr := rc.Control(func(fd uintptr) {
		for {
			if err = syscall.Fdatasync(int(fd)); err != syscall.EINTR {
				return
			}
		}
	}); cerr != nil {
		return cerr
	}
	if err != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
	}
	return nil
}
