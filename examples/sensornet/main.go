// Sensor network: resource-scarce pub/sub under lossy links.
//
// The paper motivates probabilistic subsumption with sensor networks,
// where "published content is often inaccurate or redundant" and
// applications trade delivery guarantees for efficiency. This example
// runs a 4x4 grid of sensor-field brokers with injected link loss,
// compares subscription traffic under flooding versus group coverage,
// and measures how many sensor readings still reach the sink.
//
// Run with: go run ./examples/sensornet
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"probsum/pubsub"
	"probsum/subsume"
)

const (
	gridSide  = 4
	nReadings = 200
)

func main() {
	schema := subsume.NewSchema(
		subsume.Attr("region", 0, 1023),    // sensor region code
		subsume.Attr("tempC10", -400, 850), // temperature, tenths of °C
		subsume.Attr("battery", 0, 100),    // percent
	)

	for _, policy := range []pubsub.Policy{pubsub.Flood, pubsub.Group} {
		delivered, subMsgs, dropped := run(policy, schema)
		fmt.Printf("%-8s policy: %3d/%d readings delivered, %3d subscription messages, %d messages lost to the radio\n",
			policy, delivered, nReadings, subMsgs, dropped)
	}
	fmt.Println("\ngroup coverage cuts subscription traffic while the delivery rate stays")
	fmt.Println("within the loss level the lossy links already impose — the paper's point")
	fmt.Println("about sensor networks tolerating probabilistic suppression.")
}

// run builds the grid, registers overlapping monitoring tasks at the
// sink, then streams sensor readings from the far corner region.
func run(policy pubsub.Policy, schema *subsume.Schema) (delivered, subMsgs, dropped int) {
	ctx := context.Background()
	net, err := pubsub.NewSimTransport(policy, pubsub.Config{
		ErrorProbability: 1e-6,
		Seed:             42,
		DropRate:         0.02, // 2% radio loss per hop
	})
	if err != nil {
		log.Fatal(err)
	}
	name := func(x, y int) string { return fmt.Sprintf("n%d_%d", x, y) }
	for y := 0; y < gridSide; y++ {
		for x := 0; x < gridSide; x++ {
			_, err := net.AddBroker(name(x, y))
			must(err)
		}
	}
	for y := 0; y < gridSide; y++ {
		for x := 0; x < gridSide; x++ {
			if x+1 < gridSide {
				must(net.Connect(name(x, y), name(x+1, y)))
			}
			if y+1 < gridSide {
				must(net.Connect(name(x, y), name(x, y+1)))
			}
		}
	}
	sink, err := net.Open(ctx, "sink", name(0, 0))
	must(err)
	field, err := net.Open(ctx, "field", name(gridSide-1, gridSide-1))
	must(err)

	// Monitoring tasks: many overlapping temperature watches over the
	// same few regions — the redundancy group coverage exploits.
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 60; i++ {
		region := rng.Int64N(4) * 256
		lo := -50 + rng.Int64N(200)
		sub := subsume.NewSubscription(schema).
			Range("region", region, region+255).
			Range("tempC10", lo, lo+300+rng.Int64N(300)).
			Range("battery", 10*rng.Int64N(3), 100).
			Build()
		must(sink.Subscribe(ctx, fmt.Sprintf("task/%d", i), sub))
	}

	// Sensor readings from region 0 (watched by ~a quarter of tasks).
	for i := 0; i < nReadings; i++ {
		p := subsume.NewPublication(
			rng.Int64N(256),
			rng.Int64N(500),
			20+rng.Int64N(80),
		)
		must(field.Publish(ctx, fmt.Sprintf("r%d", i), p))
	}

	var m pubsub.Metrics
	for _, id := range net.Brokers() {
		b, _ := net.Broker(id)
		m.Add(b.Metrics())
	}
	dropped = net.Dropped()
	// Shutdown closes the notification streams once drained, so the
	// loop below sees every delivery. Count distinct readings that
	// reached the sink (a reading can match several tasks; count it
	// once).
	must(net.Shutdown(ctx))
	seen := map[string]bool{}
	for n := range sink.Notifications() {
		seen[fmt.Sprint(n.Pub)] = true
	}
	return len(seen), m.SubsForwarded, dropped
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
