package scale

import (
	"reflect"
	"testing"
)

// TestScaleSmall pins the harness mechanics at a size every CI run
// affords: convergence within the round budget, steady state with
// zero full-snapshot frames, and bounded per-member traffic.
func TestScaleSmall(t *testing.T) {
	rep, err := Run(Config{N: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConvergedRound > 20 {
		t.Fatalf("n=100 took %d rounds to converge, want ≤ 20", rep.ConvergedRound)
	}
	if rep.SteadyFullGossipFrames != 0 {
		t.Fatalf("steady state sent %d full-snapshot frames, want 0 (delta dissemination incomplete)", rep.SteadyFullGossipFrames)
	}
	if rep.SteadyDeltaFrames == 0 {
		t.Fatal("steady state sent no delta frames — the gossip loop is not running")
	}
	if rep.SteadyBytesPerMemberRound > 4096 {
		t.Fatalf("steady-state traffic %.0f bytes/member/round, want bounded ≤ 4096", rep.SteadyBytesPerMemberRound)
	}
	// The per-kind traffic profile must cover the protocol's control
	// kinds: a membership-only run lives on pings, pongs, and deltas.
	for _, kind := range []string{"ping", "pong", "gossip-delta"} {
		if rep.FramesByKind[kind] == 0 {
			t.Errorf("frames by kind missing %q: %v", kind, rep.FramesByKind)
		}
	}
}

// TestScaleDeterministic pins reproducibility: the same seed yields
// the identical report (every random choice flows from Config.Seed
// and the manual clock), and a different seed still converges.
func TestScaleDeterministic(t *testing.T) {
	a, err := Run(Config{N: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{N: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n  %+v\n  %+v", a, b)
	}
	if _, err := Run(Config{N: 100, Seed: 43}); err != nil {
		t.Fatal(err)
	}
}

// TestScaleRoutedBeatsFlood pins the point of rendezvous routing: at
// the same size, seed, and operation schedule, routed subscriptions
// cost measurably fewer announcement frames per link than flooding —
// while delivering exactly the same notifications to exactly the same
// clients (the flood run is the delivery oracle) and leaving every
// link digest consistent. Sized at n=200 with
// enough subscriptions for coverage suppression to bite: this exact
// configuration caught the cycle-gradient delivery loss fixed by
// Broker.recordDupPathLocked, so it stays the regression net for it.
func TestScaleRoutedBeatsFlood(t *testing.T) {
	flood, err := Run(Config{N: 200, Seed: 1, Subs: 100, Pubs: 100})
	if err != nil {
		t.Fatal(err)
	}
	routed, err := Run(Config{N: 200, Seed: 1, Subs: 100, Pubs: 100, Routed: true})
	if err != nil {
		t.Fatal(err)
	}
	if flood.SubFrames == 0 || flood.Deliveries == 0 {
		t.Fatalf("flood oracle did no work: %+v", flood)
	}
	if routed.RouteEntries == 0 {
		t.Fatal("routed run installed no route-table entries — router not engaged")
	}
	if flood.RouteEntries != 0 {
		t.Fatalf("flood run installed %d route entries, want 0", flood.RouteEntries)
	}
	if routed.Deliveries != flood.Deliveries || routed.DeliveryHash != flood.DeliveryHash {
		t.Fatalf("delivery divergence: routed %d (%#x) vs flood %d (%#x)",
			routed.Deliveries, routed.DeliveryHash, flood.Deliveries, flood.DeliveryHash)
	}
	if routed.SubFramesPerLink*2 > flood.SubFramesPerLink {
		t.Fatalf("routed sub frames/link %.2f not at least 2x below flood %.2f",
			routed.SubFramesPerLink, flood.SubFramesPerLink)
	}
	// Gossip after the content phase carries every link digest: a
	// lost or stray announcement shows up as a sync request or as a
	// digest still off afterwards.
	for _, rep := range []struct {
		mode string
		Report
	}{{"flood", flood}, {"routed", routed}} {
		if rep.SyncRequests != 0 || rep.DigestMismatches != 0 {
			t.Errorf("%s run: %d sync requests, %d link digest mismatches after the content phase, want 0 and 0",
				rep.mode, rep.SyncRequests, rep.DigestMismatches)
		}
	}
}

// TestScaleDeltaCheaperThanLegacy pins the point of the v4 protocol:
// at the same size and seed, delta dissemination's steady state costs
// a small fraction of the full-snapshot oracle's.
func TestScaleDeltaCheaperThanLegacy(t *testing.T) {
	delta, err := Run(Config{N: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Run(Config{N: 100, Seed: 7, LegacyGossip: true})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.SteadyFullGossipFrames == 0 {
		t.Fatal("legacy run sent no full gossip — oracle knob broken")
	}
	if delta.SteadyBytesPerMemberRound*4 > legacy.SteadyBytesPerMemberRound {
		t.Fatalf("delta steady state (%.0f B/member/round) not at least 4x cheaper than legacy (%.0f)",
			delta.SteadyBytesPerMemberRound, legacy.SteadyBytesPerMemberRound)
	}
}
