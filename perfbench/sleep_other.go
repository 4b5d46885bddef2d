//go:build !linux

package main

import "time"

// pacer wakes the load generator at its due times.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (p *pacer) close() error { return nil }
