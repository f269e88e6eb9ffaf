package main

import (
	"syscall"
	"unsafe"
)

// Linux's CPU-time clocks for clock_gettime.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// threadCPUNs returns the calling thread's CPU time in nanoseconds.
// The caller keeps its goroutine on one thread between two reads.
func threadCPUNs() int64 { return cpuClockNs(clockThreadCPUTime) }

// processCPUNs returns the CPU time of all the process's threads in
// nanoseconds.
func processCPUNs() int64 { return cpuClockNs(clockProcessCPUTime) }

// cpuClockNs reads a CPU-time clock: the time a thread ran, not the
// time it waited for a CPU. The kernel leaves out the time a thread
// was descheduled and, on a guest with steal-time accounting, the time
// the hypervisor ran others.
func cpuClockNs(id uintptr) int64 {
	var ts syscall.Timespec
	// clock_gettime neither blocks nor faults on a valid pointer, so
	// the raw form skips the scheduler's syscall bookkeeping.
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("cellbench: clock_gettime: " + e.Error())
	}
	return ts.Nano()
}
