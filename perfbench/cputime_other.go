//go:build !linux

package main

import "time"

var cpuBase = time.Now()

// cpuNs falls back to monotonic wall time where no per-thread CPU clock
// is read.
func cpuNs() int64 { return int64(time.Since(cpuBase)) }
