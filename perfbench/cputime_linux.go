package main

import (
	"syscall"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// cpuNs returns the CPU time the calling OS thread has consumed. main
// locks the simulation goroutine to its thread, so differences of cpuNs
// are the simulation's own host time: time the hypervisor steals from
// the VM, which CLOCK_MONOTONIC would count, is left out.
func cpuNs() int64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + e.Error())
	}
	return ts.Nano()
}
