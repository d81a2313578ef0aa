package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// processCPU returns the CPU time all threads of this process have used.
// Under a paravirtualised kernel it excludes the time the host stole from
// the guest's vCPUs, so with one P it advances like the wall clock of a
// dedicated core.
func processCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
