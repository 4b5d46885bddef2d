package pubsub_test

// End-to-end observability: a two-broker TCP overlay must surface
// per-link frame counts by kind, nonzero publish-stage histograms,
// queue depths, and the route-table footprint through the registry —
// and the same traffic must land in an attached ClientStats as
// publish-to-notify latency.

import (
	"context"
	"strings"
	"testing"
	"time"

	"probsum/pubsub"
	"probsum/subsume"
)

func TestTCPObservabilityEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	tr, err := pubsub.NewTCPTransport(pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Shutdown(context.Background())

	b1, err := tr.AddBroker("B1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddBroker("B2"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Connect("B1", "B2"); err != nil {
		t.Fatal(err)
	}

	schema := subsume.NewSchema(
		subsume.Attr("x1", 0, 100),
		subsume.Attr("x2", 0, 100),
	)
	sub, err := tr.Open(ctx, "S", "B2")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := tr.Open(ctx, "P", "B1")
	if err != nil {
		t.Fatal(err)
	}

	stats := pubsub.NewClientStats(pubsub.WithRawSamples())
	sub.SetStats(stats)
	pub.SetStats(stats)

	s := subsume.NewSubscription(schema).Range("x1", 0, 100).Range("x2", 0, 100).Build()
	if err := sub.Subscribe(ctx, "s1", s); err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	const pubs = 20
	for i := 0; i < pubs; i++ {
		if err := pub.Publish(ctx, "p"+string(rune('a'+i)), subsume.NewPublication(50, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pubs; i++ {
		select {
		case <-sub.Notifications():
		case <-ctx.Done():
			t.Fatal("timed out waiting for notifications")
		}
	}

	// Client-side latency: every publication was delivered, so every
	// stamp must be resolved with a nonzero latency.
	if got := stats.Snapshot().Count; got != pubs {
		t.Errorf("client latency samples = %d, want %d", got, pubs)
	}
	if stats.Pending() != 0 {
		t.Errorf("pending publish stamps = %d, want 0", stats.Pending())
	}
	if raw := stats.RawSamples(); len(raw) != pubs {
		t.Errorf("raw samples = %d, want %d", len(raw), pubs)
	} else {
		for _, d := range raw {
			if d <= 0 {
				t.Errorf("non-positive latency sample %v", d)
			}
		}
	}

	reg := b1.Observability()
	if reg == nil {
		t.Fatal("TCP broker returned nil registry")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Core series the CI smoke also greps for: broker counters,
	// per-link frames by kind, stage histograms, queue depth, route
	// footprint.
	for _, want := range []string{
		"probsum_broker_pubs_received",
		`probsum_link_frames_sent_total{link="B2",kind="publish"}`,
		`probsum_link_write_syscalls_total{link="B2"}`,
		"probsum_publish_stage_match_ns_count",
		"probsum_publish_stage_route_ns_count",
		"probsum_publish_stage_enqueue_ns_count",
		"probsum_publish_stage_write_ns_count",
		"probsum_publish_stage_decode_ns_count",
		"probsum_send_queue_depth_total",
		"probsum_route_tables",
		"probsum_route_entries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", out)
	}

	j := reg.JSON()
	if j.Counters["broker_pubs_received"] < pubs {
		t.Errorf("broker_pubs_received = %d, want >= %d", j.Counters["broker_pubs_received"], pubs)
	}
	for _, h := range []string{"publish_stage_match_ns", "publish_stage_route_ns",
		"publish_stage_enqueue_ns", "publish_stage_write_ns", "publish_stage_decode_ns"} {
		if j.Histograms[h].Count == 0 {
			t.Errorf("histogram %s has zero observations", h)
		}
	}
	if link, ok := j.Links["B2"]; !ok || link.Sent["publish"] == 0 {
		t.Errorf("link B2 publish frames not counted: %+v", j.Links)
	} else {
		// Every write carries at least one counted frame.
		var sent uint64
		for _, n := range link.Sent {
			sent += n
		}
		if link.Writes == 0 || link.Writes > sent {
			t.Errorf("link B2 writes = %d, want 1..%d (frames sent)", link.Writes, sent)
		}
	}

	// The simulator transport carries no registry by design.
	sim, err := pubsub.NewSimTransport(pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sb1, err := sim.AddBroker("S1")
	if err != nil {
		t.Fatal(err)
	}
	if sb1.Observability() != nil {
		t.Error("sim broker should have nil registry")
	}
}

func TestClientStatsUnknownDeliveryIgnored(t *testing.T) {
	now := time.Unix(0, 0)
	cs := pubsub.NewClientStats(pubsub.WithStatsClock(func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}))
	cs.MarkPublished("p1")
	// Unknown ID: ignored. Known ID: observed once; repeat ignored.
	cs.MarkDelivered("nope")
	if got := cs.Snapshot().Count; got != 0 {
		t.Fatalf("unknown delivery counted: %d", got)
	}
	cs.MarkDelivered("p1")
	cs.MarkDelivered("p1")
	if got := cs.Snapshot().Count; got != 1 {
		t.Fatalf("samples = %d, want 1 (duplicate delivery must not re-count)", got)
	}
	if cs.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", cs.Pending())
	}
}
