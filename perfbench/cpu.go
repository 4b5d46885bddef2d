package main

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time this process has used, user plus system.
// Time the host gives other tenants (steal) is not in it, so work per
// CPU-second stays comparable on a shared machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
