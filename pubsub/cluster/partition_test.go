package cluster

// Partition healing on the simulator (ISSUE 5 satellite): a 3-node
// chain is partitioned, both sides keep subscribing and publishing,
// the partition heals, and post-heal delivery must converge to what a
// never-partitioned run delivers. Everything — ping misses,
// suspect→dead timeouts, reconnect backoff, the root re-announcement
// — runs on the injected simnet clock, so the whole scenario is
// deterministic and runs without sockets (and under -race).

import (
	"fmt"
	"testing"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/simnet"
	"probsum/internal/store"
	"probsum/internal/subscription"
)

// simCluster is a 3-node chain B1–B2–B3 with membership nodes and
// clients alice@B1 and carol@B3.
type simCluster struct {
	t     *testing.T
	net   *simnet.Network
	clock *simnet.Clock
	ids   []string
	nodes map[string]*Node
}

func newSimCluster(t *testing.T) *simCluster {
	t.Helper()
	return newSimClusterCfg(t, Config{
		PingEvery:     500 * time.Millisecond,
		SuspectMisses: 2,
		DeadAfter:     2 * time.Second,
		GossipEvery:   time.Second,
		ReconnectMin:  500 * time.Millisecond,
		ReconnectMax:  2 * time.Second,
		Seed:          7,
	})
}

func newSimClusterCfg(t *testing.T, cfg Config) *simCluster {
	t.Helper()
	sc := &simCluster{
		t:     t,
		net:   simnet.New(),
		clock: simnet.NewClock(),
		ids:   []string{"B1", "B2", "B3"},
		nodes: make(map[string]*Node),
	}
	for _, id := range sc.ids {
		if err := sc.net.AddBroker(id, store.PolicyPairwise); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.net.Connect("B1", "B2"); err != nil {
		t.Fatal(err)
	}
	if err := sc.net.Connect("B2", "B3"); err != nil {
		t.Fatal(err)
	}
	for _, id := range sc.ids {
		n, err := NewSimNode(sc.net, id, sc.clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc.nodes[id] = n
	}
	link := func(a, b string) {
		sc.nodes[a].AddMember(Member{ID: b, Addr: b}, true)
		sc.nodes[b].AddMember(Member{ID: a, Addr: a}, true)
	}
	link("B1", "B2")
	link("B2", "B3")
	// Non-neighbors track each other through gossip only.
	sc.nodes["B1"].AddMember(Member{ID: "B3", Addr: "B3"}, false)
	sc.nodes["B3"].AddMember(Member{ID: "B1", Addr: "B1"}, false)

	for _, c := range []struct{ client, broker string }{{"alice", "B1"}, {"carol", "B3"}} {
		if err := sc.net.AttachClient(c.client, c.broker); err != nil {
			t.Fatal(err)
		}
	}
	return sc
}

func (sc *simCluster) subscribe(client, subID string, lo, hi int64) {
	sc.t.Helper()
	s := subscription.New(interval.New(lo, hi), interval.New(lo, hi))
	if err := sc.net.ClientSubscribe(client, subID, s); err != nil {
		sc.t.Fatal(err)
	}
	if _, err := sc.net.Run(); err != nil {
		sc.t.Fatal(err)
	}
}

func (sc *simCluster) publish(client, pubID string, v int64) {
	sc.t.Helper()
	if err := sc.net.ClientPublish(client, pubID, subscription.NewPublication(v, v)); err != nil {
		sc.t.Fatal(err)
	}
	if _, err := sc.net.Run(); err != nil {
		sc.t.Fatal(err)
	}
}

// deliveredSet collects a client's notifications for the given
// publication IDs as "subID/pubID" strings.
func (sc *simCluster) deliveredSet(client string, pubIDs map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for _, m := range sc.net.Delivered(client) {
		if m.Kind == broker.MsgNotify && pubIDs[m.PubID] {
			out[fmt.Sprintf("%s/%s", m.SubID, m.PubID)] = true
		}
	}
	return out
}

func (sc *simCluster) memberState(onNode, member string) State {
	m, ok := sc.nodes[onNode].Member(member)
	if !ok {
		sc.t.Fatalf("node %s does not track %s", onNode, member)
	}
	return m.State
}

// runPartitionScenario drives the shared script, with or without the
// B1–B2 partition, and returns the per-client delivery sets of the
// post-heal probe publications.
func runPartitionScenario(t *testing.T, partition bool) (alice, carol map[string]bool, sc *simCluster) {
	sc = newSimCluster(t)

	// Assemble: the reconnect loop establishes every link.
	if err := SimStep(sc.net, sc.clock, sc.ids, sc.nodes, 250*time.Millisecond, 8); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"B1", "B2"}, {"B2", "B1"}, {"B2", "B3"}, {"B3", "B2"}} {
		if got := sc.memberState(pair[0], pair[1]); got != StateAlive {
			t.Fatalf("after assembly %s sees %s as %v", pair[0], pair[1], got)
		}
	}

	// Pre-partition subscriptions on both edges of the chain.
	sc.subscribe("alice", "a1", 0, 100)
	sc.subscribe("carol", "c1", 200, 300)

	if partition {
		sc.net.SetLink("B1", "B2", false)
		// Let the failure detector walk alive → suspect → dead on both
		// sides of the cut (and gossip the verdict to B3).
		if err := SimStep(sc.net, sc.clock, sc.ids, sc.nodes, 250*time.Millisecond, 40); err != nil {
			t.Fatal(err)
		}
		if got := sc.memberState("B1", "B2"); got != StateDead {
			t.Fatalf("B1 sees B2 as %v mid-partition, want dead", got)
		}
		if got := sc.memberState("B2", "B1"); got != StateDead {
			t.Fatalf("B2 sees B1 as %v mid-partition, want dead", got)
		}
		if got := sc.memberState("B3", "B1"); got != StateDead {
			t.Fatalf("gossip did not carry B1's death to B3: %v", got)
		}
	} else {
		if err := SimStep(sc.net, sc.clock, sc.ids, sc.nodes, 250*time.Millisecond, 40); err != nil {
			t.Fatal(err)
		}
	}

	// Both sides keep operating: new subscriptions (whose floods are
	// lost across the cut) and publications (those crossing the cut
	// are lost — the at-most-once tolerance the protocol documents).
	sc.subscribe("alice", "a2", 400, 450)
	sc.subscribe("carol", "c2", 600, 650)
	sc.publish("alice", "pm1", 250) // would match c1 across the cut
	sc.publish("carol", "pm2", 50)  // would match a1 across the cut

	if partition {
		sc.net.SetLink("B1", "B2", true)
		if sc.net.PartitionDropped() == 0 {
			t.Fatal("partition dropped nothing; the scenario is vacuous")
		}
	}
	// Heal: the reconnect loop re-dials (jittered backoff), the link
	// comes back, and both sides re-announce their coverage roots.
	if err := SimStep(sc.net, sc.clock, sc.ids, sc.nodes, 250*time.Millisecond, 40); err != nil {
		t.Fatal(err)
	}
	if partition {
		for _, pair := range [][2]string{{"B1", "B2"}, {"B2", "B1"}, {"B3", "B1"}} {
			if got := sc.memberState(pair[0], pair[1]); got != StateAlive {
				t.Fatalf("after heal %s sees %s as %v", pair[0], pair[1], got)
			}
		}
	}

	// Post-heal probes: every subscription — including the ones whose
	// original flood was lost in the partition — must route across the
	// whole chain again.
	probes := map[string]bool{"q1": true, "q2": true, "q3": true, "q4": true}
	sc.publish("alice", "q1", 620) // c2, announced only during the cut
	sc.publish("carol", "q2", 420) // a2, announced only during the cut
	sc.publish("alice", "q3", 250) // c1, pre-partition
	sc.publish("carol", "q4", 50)  // a1, pre-partition
	return sc.deliveredSet("alice", probes), sc.deliveredSet("carol", probes), sc
}

func setsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestFlapDuringBackfillDigestGC pins the flap-mid-SUBBATCH repair: a
// link that drops AGAIN between the heal backfill and the digest
// round leaves the receiver holding a reverse-path entry for a
// subscription the sender retired during the first cut (the
// unsubscribe died on the dead link, and the backfill only adds — it
// never asserts completeness). The next digest reconciliation must GC
// that entry through the full unsubscribe machinery — received set,
// coverage table toward third parties, and a downstream UNSUBBATCH —
// not merely stop counting it, or every flap inflates the neighbor
// tables a little more and re-delivers retired subscriptions forever.
func TestFlapDuringBackfillDigestGC(t *testing.T) {
	// Gossip (which carries the link digest) runs at 5s against 250ms
	// sim ticks, so the heal backfill and the digest round land on
	// clearly different ticks and the flap can be wedged between them.
	sc := newSimClusterCfg(t, Config{
		PingEvery:     500 * time.Millisecond,
		SuspectMisses: 2,
		DeadAfter:     2 * time.Second,
		GossipEvery:   5 * time.Second,
		ReconnectMin:  500 * time.Millisecond,
		ReconnectMax:  2 * time.Second,
		Seed:          7,
	})
	if err := SimStep(sc.net, sc.clock, sc.ids, sc.nodes, 250*time.Millisecond, 8); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"B1", "B2"}, {"B2", "B1"}, {"B2", "B3"}, {"B3", "B2"}} {
		if got := sc.memberState(pair[0], pair[1]); got != StateAlive {
			t.Fatalf("after assembly %s sees %s as %v", pair[0], pair[1], got)
		}
	}
	b2, b3 := sc.net.Broker("B2"), sc.net.Broker("B3")
	received := func(sub string) bool {
		for _, id := range b2.ReceivedFrom("B1") {
			if id == sub {
				return true
			}
		}
		return false
	}

	sc.subscribe("alice", "a1", 0, 100)
	sc.subscribe("carol", "c1", 200, 300)
	if !received("a1") {
		t.Fatal("a1 never flooded to B2; the scenario is vacuous")
	}

	// First cut. While it stands, alice retires a1 (the UNSUBSCRIBE
	// toward B2 dies on the dead link) and opens a2.
	sc.net.SetLink("B1", "B2", false)
	if err := SimStep(sc.net, sc.clock, sc.ids, sc.nodes, 250*time.Millisecond, 40); err != nil {
		t.Fatal(err)
	}
	if err := sc.net.ClientUnsubscribe("alice", "a1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.net.Run(); err != nil {
		t.Fatal(err)
	}
	sc.subscribe("alice", "a2", 400, 450)

	// First heal: run only until the backfill SUBBATCH {a2} lands on
	// B2, then flap the link again — before any digest round.
	sc.net.SetLink("B1", "B2", true)
	backfilled := false
	for i := 0; i < 40 && !backfilled; i++ {
		if err := SimStep(sc.net, sc.clock, sc.ids, sc.nodes, 250*time.Millisecond, 1); err != nil {
			t.Fatal(err)
		}
		backfilled = received("a2")
	}
	if !backfilled {
		t.Fatal("backfill never reached B2 after the heal")
	}
	if !received("a1") {
		t.Fatal("a1 already reconciled at backfill time; the flap cannot land between backfill and digest")
	}
	sc.net.SetLink("B1", "B2", false)
	if err := SimStep(sc.net, sc.clock, sc.ids, sc.nodes, 250*time.Millisecond, 40); err != nil {
		t.Fatal(err)
	}

	// Second heal, this time to quiescence: reconnect, duplicate
	// backfill, and at least one full digest round trip.
	sc.net.SetLink("B1", "B2", true)
	if err := SimStep(sc.net, sc.clock, sc.ids, sc.nodes, 250*time.Millisecond, 60); err != nil {
		t.Fatal(err)
	}

	// The stale reverse-path entry is gone from the link's received
	// set, and the digest pair agrees in both directions.
	if received("a1") {
		t.Error("B2 still lists a1 as received from B1 after reconciliation")
	}
	if !received("a2") {
		t.Error("reconciliation dropped the live a2")
	}
	for _, dir := range [][2]string{{"B1", "B2"}, {"B2", "B1"}} {
		sender, receiver := sc.net.Broker(dir[0]), sc.net.Broker(dir[1])
		if sent, ok := sender.LinkDigest(dir[1]); ok && sent != receiver.ReceivedDigest(dir[0]) {
			t.Errorf("%s→%s digests diverge after reconciliation", dir[0], dir[1])
		}
	}
	// The GC ran the full unsubscribe machinery: B2's coverage table
	// toward B3 no longer carries a1 (no inflation), and the
	// downstream UNSUBBATCH purged B3 too.
	for _, root := range b2.NeighborRoots("B3") {
		if root.SubID == "a1" {
			t.Error("B2's table toward B3 still carries the retired a1")
		}
	}
	if src, ok := b3.KnowsSubscription("a1"); ok {
		t.Errorf("B3 still knows a1 (via %s); the stale-entry GC did not propagate downstream", src)
	}
	// And delivery agrees: a publication in a1's old range goes
	// nowhere, one in a2's range reaches alice.
	sc.publish("carol", "q-old", 50)
	sc.publish("carol", "q-new", 420)
	probes := map[string]bool{"q-old": true, "q-new": true}
	got := sc.deliveredSet("alice", probes)
	want := map[string]bool{"a2/q-new": true}
	if !setsEqual(got, want) {
		t.Errorf("alice deliveries after the flap: got %v, want %v", got, want)
	}
}

func TestPartitionHealsToOracle(t *testing.T) {
	oracleAlice, oracleCarol, _ := runPartitionScenario(t, false)
	healedAlice, healedCarol, sc := runPartitionScenario(t, true)

	// The oracle must actually deliver across the chain, or the
	// comparison proves nothing.
	if !oracleCarol["c2/q1"] || !oracleAlice["a2/q2"] || !oracleCarol["c1/q3"] || !oracleAlice["a1/q4"] {
		t.Fatalf("oracle deliveries incomplete: alice %v carol %v", oracleAlice, oracleCarol)
	}
	if !setsEqual(healedAlice, oracleAlice) {
		t.Errorf("alice post-heal deliveries diverge from oracle:\n healed %v\n oracle %v", healedAlice, oracleAlice)
	}
	if !setsEqual(healedCarol, oracleCarol) {
		t.Errorf("carol post-heal deliveries diverge from oracle:\n healed %v\n oracle %v", healedCarol, oracleCarol)
	}

	// The healing protocol itself: each side of the cut re-announced
	// its roots exactly once, as ONE batch.
	m1, m2 := sc.nodes["B1"].Metrics(), sc.nodes["B2"].Metrics()
	if m1.ReannounceBatches != 1 || m1.ReannouncedSubs != 2 {
		t.Errorf("B1 reannounce metrics = %+v, want 1 batch of 2", m1)
	}
	if m2.ReannounceBatches != 1 || m2.ReannouncedSubs != 2 {
		t.Errorf("B2 reannounce metrics = %+v, want 1 batch of 2", m2)
	}
	if m1.Deaths == 0 || m1.Recoveries == 0 || m1.DialFailures == 0 {
		t.Errorf("B1 failure-detector metrics did not move: %+v", m1)
	}
	// The re-announced batch reached the downstream coverage table as
	// ONE batch admission: B2's table toward B3 admitted {a2} (a1 was
	// deduplicated as already known).
	tm, ok := sc.net.Broker("B2").NeighborTableMetrics("B3")
	if !ok {
		t.Fatal("B2 has no coverage table for B3")
	}
	if tm.Batches != 1 || tm.BatchItems != 1 {
		t.Errorf("B2→B3 table admissions: %d batches with %d items, want 1 batch of 1 (metrics %+v)",
			tm.Batches, tm.BatchItems, tm)
	}
}
