package pubsub_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"probsum/pubsub"
	"probsum/subsume"
)

// TestSimTransportPublishCostFlat pins the incremental delivery drain:
// the bytes one SimTransport publish allocates do not grow with the
// number of deliveries made before it. Each window reports the median
// over single publishes, so the simulator log's occasional growth step
// does not count; a drain that re-reads every earlier delivery on
// every operation costs O(deliveries) bytes on every publish.
func TestSimTransportPublishCostFlat(t *testing.T) {
	ctx := context.Background()
	tr, err := pubsub.NewSimTransport(pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddBroker("B1"); err != nil {
		t.Fatal(err)
	}
	sub := open(t, tr, "sub", "B1")
	pub := open(t, tr, "pub", "B1")
	schema := subsume.UniformSchema(2, 0, 100)
	if err := sub.Subscribe(ctx, "all", subsume.NewSubscription(schema).Build()); err != nil {
		t.Fatal(err)
	}
	// Nobody reads the stream: closing it keeps the client's queue
	// empty while every publish still lands in the simulator's
	// delivery log and goes through the drain.
	sub.Close()

	next := 0
	publish := func() {
		next++
		if err := pub.Publish(ctx, fmt.Sprintf("p%d", next), subsume.NewPublication(5, 5)); err != nil {
			t.Fatal(err)
		}
	}
	medianBytes := func() uint64 {
		const samples = 101
		costs := make([]uint64, samples)
		var before, after runtime.MemStats
		for i := range costs {
			runtime.ReadMemStats(&before)
			publish()
			runtime.ReadMemStats(&after)
			costs[i] = after.TotalAlloc - before.TotalAlloc
		}
		sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
		return costs[samples/2]
	}
	for next < 10 {
		publish()
	}
	early := medianBytes()
	for next < 10_000 {
		publish()
	}
	late := medianBytes()
	if m, _ := tr.Broker("B1"); m.Metrics().Notifications < 10_000 {
		t.Fatalf("only %d deliveries made; the scenario never reached 10,000", m.Metrics().Notifications)
	}
	if late > early+early/4 {
		t.Fatalf("one publish allocates %d B after 10,000 deliveries vs %d B after 10: the drain is not incremental", late, early)
	}
}
