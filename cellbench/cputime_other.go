//go:build !linux

package main

import "time"

var cpuEpoch = wall.Now()

// threadCPUNs and processCPUNs fall back to wall time where there is
// no CPU-time clock, so the times include waiting for a CPU.
func threadCPUNs() int64 { return int64(wall.Since(cpuEpoch) / time.Nanosecond) }

func processCPUNs() int64 { return threadCPUNs() }
