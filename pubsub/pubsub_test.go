package pubsub_test

import (
	"context"
	"fmt"
	"testing"

	"probsum/pubsub"
	"probsum/subsume"
)

// buildChain returns a simulated B1–…–Bn chain under the given policy.
func buildChain(t *testing.T, policy pubsub.Policy, brokers int) *pubsub.SimTransport {
	t.Helper()
	tr, err := pubsub.NewSimTransport(policy, pubsub.Config{ErrorProbability: 1e-9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= brokers; i++ {
		if _, err := tr.AddBroker(fmt.Sprintf("B%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < brokers; i++ {
		if err := tr.Connect(fmt.Sprintf("B%d", i), fmt.Sprintf("B%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// open attaches a client to a broker of a simulated transport.
func open(t *testing.T, tr *pubsub.SimTransport, client, brokerID string) *pubsub.Client {
	t.Helper()
	c, err := tr.Open(context.Background(), client, brokerID)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drain shuts the transport down and returns every notification the
// client received: a simulated operation has delivered everything
// before it returns, and shutdown closes the stream once drained.
func drain(t *testing.T, tr *pubsub.SimTransport, c *pubsub.Client) []pubsub.Notification {
	t.Helper()
	if err := tr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	var out []pubsub.Notification
	for n := range c.Notifications() {
		out = append(out, n)
	}
	return out
}

// totalMetrics sums the counters of every broker in the transport.
func totalMetrics(tr *pubsub.SimTransport) pubsub.Metrics {
	var m pubsub.Metrics
	for _, id := range tr.Brokers() {
		b, _ := tr.Broker(id)
		m.Add(b.Metrics())
	}
	return m
}

func TestEndToEndDelivery(t *testing.T) {
	ctx := context.Background()
	schema := subsume.UniformSchema(2, 0, 100)
	for _, policy := range []pubsub.Policy{pubsub.Flood, pubsub.Pairwise, pubsub.Group} {
		t.Run(policy.String(), func(t *testing.T) {
			tr := buildChain(t, policy, 4)
			alice := open(t, tr, "alice", "B1")
			pub := open(t, tr, "pub", "B4")
			s := subsume.NewSubscription(schema).Range("x1", 10, 50).Build()
			if err := alice.Subscribe(ctx, "a1", s); err != nil {
				t.Fatal(err)
			}
			if err := pub.Publish(ctx, "p1", subsume.NewPublication(30, 30)); err != nil {
				t.Fatal(err)
			}
			// Non-matching publication is not delivered.
			if err := pub.Publish(ctx, "p2", subsume.NewPublication(90, 90)); err != nil {
				t.Fatal(err)
			}
			got := drain(t, tr, alice)
			if len(got) != 1 || got[0].SubID != "a1" || got[0].PubID != "p1" {
				t.Fatalf("notifications = %+v", got)
			}
		})
	}
}

func TestGroupPolicySuppressesUnionCovered(t *testing.T) {
	ctx := context.Background()
	schema := subsume.UniformSchema(2, 0, 100)
	nGroup := buildChain(t, pubsub.Group, 3)
	nPair := buildChain(t, pubsub.Pairwise, 3)
	for _, tr := range []*pubsub.SimTransport{nGroup, nPair} {
		c := open(t, tr, "c", "B1")
		left := subsume.NewSubscription(schema).Range("x1", 0, 60).Build()
		right := subsume.NewSubscription(schema).Range("x1", 40, 100).Build()
		mid := subsume.NewSubscription(schema).Range("x1", 20, 80).Range("x2", 10, 90).Build()
		for id, s := range map[string]pubsub.Subscription{"left": left, "right": right} {
			if err := c.Subscribe(ctx, id, s); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Subscribe(ctx, "mid", mid); err != nil {
			t.Fatal(err)
		}
	}
	// Group coverage suppresses "mid" on every link; pairwise cannot.
	g, p := totalMetrics(nGroup), totalMetrics(nPair)
	if g.SubsForwarded >= p.SubsForwarded {
		t.Errorf("group forwarded %d >= pairwise %d", g.SubsForwarded, p.SubsForwarded)
	}
	if g.SubsSuppressed == 0 {
		t.Error("group policy suppressed nothing")
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	ctx := context.Background()
	schema := subsume.UniformSchema(2, 0, 100)
	tr := buildChain(t, pubsub.Pairwise, 3)
	c := open(t, tr, "c", "B1")
	pub := open(t, tr, "pub", "B3")
	s := subsume.NewSubscription(schema).Range("x1", 0, 50).Build()
	if err := c.Subscribe(ctx, "s1", s); err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(ctx, "s1"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(ctx, "p1", subsume.NewPublication(25, 25)); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, tr, c); len(got) != 0 {
		t.Fatalf("delivery after unsubscribe: %+v", got)
	}
}

func TestMetricsAndAccessors(t *testing.T) {
	tr := buildChain(t, pubsub.Flood, 2)
	ids := tr.Brokers()
	if len(ids) != 2 || ids[0] != "B1" {
		t.Fatalf("brokers = %v", ids)
	}
	b, ok := tr.Broker("B1")
	if !ok || b.ID() != "B1" {
		t.Fatalf("Broker(B1) = %v, %v", b, ok)
	}
	_ = b.Metrics()
	if _, ok := tr.Broker("nope"); ok {
		t.Error("unknown broker found")
	}
}

func TestPolicyValidation(t *testing.T) {
	if _, err := pubsub.NewSimTransport(pubsub.Policy(99), pubsub.Config{}); err == nil {
		t.Error("invalid policy accepted")
	}
	for p, want := range map[pubsub.Policy]string{
		pubsub.Flood: "flood", pubsub.Pairwise: "pairwise", pubsub.Group: "group",
		pubsub.Policy(9): "unknown",
	} {
		if p.String() != want {
			t.Errorf("Policy(%d).String() = %q", p, p.String())
		}
	}
}
