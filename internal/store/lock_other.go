//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package store

import "os"

// lockDir is a no-op where flock is unavailable: keeping one writer
// per store directory is then up to the operator.
func lockDir(string) (*os.File, error) { return nil, nil }
