//go:build unix && !linux

package journal

import "os"

// datasync writes f's dirty pages, those stored through a mapping
// included, to stable storage. There is no fdatasync here: it is fsync.
func datasync(f *os.File, _ []byte) error {
	return f.Sync()
}
