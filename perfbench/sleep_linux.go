package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer wakes the load generator at its due times. time.Sleep wakes it
// 0.5 ms late at the median, most of a publication's latency. A
// blocking nanosleep wakes on time but keeps the sleeping goroutine's
// runtime processor, leaving the brokers one of the two. Reading a
// timerfd through the runtime's poller parks the goroutine, frees its
// processor, and wakes it within about 0.1 ms, without spinning.
type pacer struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes the File pollable.
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep blocks the calling goroutine for d.
func (p *pacer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil // a zero expiry would disarm the timer
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
