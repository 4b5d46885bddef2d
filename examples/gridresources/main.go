// Grid resource discovery: the paper's second Section 3 scenario.
//
// Services announce computational capabilities as subscriptions
// (Table 2 of the paper); jobs publish requirements. The broker
// overlay routes each job to every service whose announcement matches,
// while group coverage keeps announcement traffic low as services with
// overlapping capability windows register.
//
// Run with: go run ./examples/gridresources
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"probsum/pubsub"
	"probsum/subsume"
)

func main() {
	schema := subsume.NewSchema(
		subsume.Attr("cpu", 0, 10_000),     // available CPU cycles (millions)
		subsume.Attr("disk", 0, 1000),      // kB of scratch disk
		subsume.Attr("memMB", 0, 64_000),   // RAM in MB
		subsume.Attr("service", 1, 10_000), // service-name ID range
		subsume.Attr("tstart", 0, 100_000), // availability window
	)

	// A three-broker data-center overlay: scheduler <-> core <-> edge.
	ctx := context.Background()
	net, err := pubsub.NewSimTransport(pubsub.Group, pubsub.Config{ErrorProbability: 1e-6, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range []string{"scheduler", "core", "edge"} {
		if _, err := net.AddBroker(b); err != nil {
			log.Fatal(err)
		}
	}
	must(net.Connect("scheduler", "core"))
	must(net.Connect("core", "edge"))

	// Table 2's service announcement: cpu 3000-3500, disk 40-50kB,
	// 1 GB memory, a.service.org, 16:00-20:00 window.
	svc, err := net.Open(ctx, "svc-a", "edge")
	must(err)
	tableTwo := subsume.NewSubscription(schema).
		Range("cpu", 3000, 3500).
		Range("disk", 40, 50).
		Eq("memMB", 1024).
		Eq("service", 42). // a.service.org
		Range("tstart", 57_600, 72_000).
		Build()
	must(svc.Subscribe(ctx, "svc-a/0", tableTwo))

	// A fleet of worker services with overlapping capability windows
	// registers at the edge broker.
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 120; i++ {
		cpuLo := rng.Int64N(4000)
		sub := subsume.NewSubscription(schema).
			Range("cpu", cpuLo, cpuLo+1000+rng.Int64N(3000)).
			Range("disk", 0, 50+rng.Int64N(500)).
			Range("memMB", 0, 2048*(1+rng.Int64N(8))).
			Range("service", 1, 10_000).
			Range("tstart", rng.Int64N(20_000), 50_000+rng.Int64N(50_000)).
			Build()
		must(svc.Subscribe(ctx, fmt.Sprintf("svc-a/%d", i+1), sub))
	}
	var m pubsub.Metrics
	for _, id := range net.Brokers() {
		b, _ := net.Broker(id)
		m.Add(b.Metrics())
	}
	fmt.Printf("announcements: %d forwarded, %d suppressed by group coverage\n",
		m.SubsForwarded, m.SubsSuppressed)

	// Jobs arrive at the scheduler; Table 2's p1 matches the announced
	// service, p2 (too little memory offered for its need profile)
	// does not match Table 2's service.
	jobs, err := net.Open(ctx, "jobs", "scheduler")
	must(err)
	p1 := subsume.NewPublication(3500, 45, 1024, 42, 57_600)
	p2 := subsume.NewPublication(1035, 45, 512, 99, 44_000)
	must(jobs.Publish(ctx, "job-1", p1))
	must(jobs.Publish(ctx, "job-2", p2))

	// Shutdown closes the notification streams once drained, so the
	// loop below sees every delivery.
	must(net.Shutdown(ctx))
	matched := map[string]bool{}
	total := 0
	for n := range svc.Notifications() {
		total++
		if n.SubID == "svc-a/0" {
			matched[fmt.Sprint(n.Pub)] = true
		}
	}
	fmt.Printf("job-1 reached Table 2's service: %v (paper: matches)\n", matched[fmt.Sprint(p1)])
	fmt.Printf("job-2 reached Table 2's service: %v (paper: no match)\n", matched[fmt.Sprint(p2)])
	fmt.Printf("total notifications delivered to the service fleet: %d\n", total)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
