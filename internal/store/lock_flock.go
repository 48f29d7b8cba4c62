//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package store

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive, non-blocking advisory lock on dir/LOCK.
// flock locks belong to the open file, so a second Open in the same
// process conflicts just like one in another process. Closing the
// returned file releases the lock; so does the process dying.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s is already open by another writer: %w", dir, err)
	}
	return f, nil
}
