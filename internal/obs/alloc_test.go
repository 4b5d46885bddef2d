package obs

// Hot-path allocation pins. The acceptance bar for this layer is
// "instrumentation adds zero allocations on the publish hot path":
// Observe, LinkStats counting, and a full stage timing (clock read +
// Sub + Observe) must all be alloc-free.

import (
	"testing"
	"time"
)

func TestObserveZeroAlloc(t *testing.T) {
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(1234 * time.Nanosecond) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op, want 0", n)
	}
}

func TestLinkStatsZeroAlloc(t *testing.T) {
	var l LinkStats
	if n := testing.AllocsPerRun(1000, func() { l.Sent(5); l.Recv(5); l.Wrote() }); n != 0 {
		t.Fatalf("LinkStats counting allocates %v per op, want 0", n)
	}
}

// TestStageTimingZeroAlloc pins the full instrumentation pattern used
// on the publish path: read the injected clock, do "work", read it
// again, observe the difference.
func TestStageTimingZeroAlloc(t *testing.T) {
	h := NewHistogram()
	clock := time.Now
	if n := testing.AllocsPerRun(1000, func() {
		t0 := clock()
		h.Observe(clock().Sub(t0))
	}); n != 0 {
		t.Fatalf("stage timing allocates %v per op, want 0", n)
	}
}
