package cluster

// SWIM mechanics (ISSUE 8): indirect probes keeping members alive
// across one broken path, delta dissemination converging to the
// full-snapshot oracle's member map under seeded churn, and the
// inbound-EOF dial race staying incarnation-idempotent. Everything
// runs on the simulator clock — deterministic, socket-free, -race
// friendly.

import (
	"testing"
	"time"

	"probsum/internal/broker"
	"probsum/internal/simnet"
	"probsum/internal/store"
)

// swimTriangle builds three simulated brokers linked pairwise, each
// membership node tracking both peers.
func swimTriangle(t *testing.T, mutate func(*Config)) (*simnet.Network, *simnet.Clock, map[string]*Node, []string) {
	t.Helper()
	net := simnet.New()
	clock := simnet.NewClock()
	ids := []string{"B1", "B2", "B3"}
	for _, id := range ids {
		if err := net.AddBroker(id, store.PolicyPairwise); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if err := net.Connect(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := Config{
		PingEvery:     500 * time.Millisecond,
		SuspectMisses: 2,
		DeadAfter:     2 * time.Second,
		GossipEvery:   time.Second,
		ReconnectMin:  500 * time.Millisecond,
		ReconnectMax:  2 * time.Second,
		Seed:          7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	nodes := make(map[string]*Node)
	for _, id := range ids {
		n, err := NewSimNode(net, id, clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			nodes[a].AddMember(Member{ID: b, Addr: b}, true)
			nodes[b].AddMember(Member{ID: a, Addr: a}, true)
		}
	}
	return net, clock, nodes, ids
}

// TestIndirectProbeKeepsMemberAlive pins SWIM's core robustness win:
// when only the B1–B2 path breaks, B1's direct pings go unanswered but
// the PING-REQ relay through B3 vouches for B2, so B2 never turns
// suspect at B1 — no suspicion gossip, no refutation rounds, no
// incarnation inflation. The control run with indirect probing
// disabled shows the pathology the relays prevent: B1 suspects B2,
// the rumor leaks to B3 (whose own probe windows defeat the
// direct-evidence guard transiently), B2 refutes at a bumped
// incarnation, and the cycle spins for as long as the path stays
// broken.
func TestIndirectProbeKeepsMemberAlive(t *testing.T) {
	net, clock, nodes, ids := swimTriangle(t, nil)
	if err := SimStep(net, clock, ids, nodes, 250*time.Millisecond, 8); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"B1", "B2"}, {"B2", "B1"}, {"B1", "B3"}, {"B3", "B2"}} {
		if m, _ := nodes[pair[0]].Member(pair[1]); m.State != StateAlive {
			t.Fatalf("after assembly %s sees %s as %v", pair[0], pair[1], m.State)
		}
	}

	// Cut only the direct B1–B2 path; both ends keep a live path
	// through B3. Far longer than DeadAfter.
	net.SetLink("B1", "B2", false)
	if err := SimStep(net, clock, ids, nodes, 250*time.Millisecond, 40); err != nil {
		t.Fatal(err)
	}

	if m, _ := nodes["B1"].Member("B2"); m.State != StateAlive || m.Incarnation != 1 {
		t.Fatalf("B1 sees B2 as %v@%d despite a live relay path, want alive@1", m.State, m.Incarnation)
	}
	if m, _ := nodes["B2"].Member("B1"); m.State != StateAlive {
		t.Fatalf("B2 sees B1 as %v despite a live relay path, want alive", m.State)
	}
	m1 := nodes["B1"].Metrics()
	if m1.Suspects != 0 {
		t.Errorf("B1 suspected a member %d times despite the relay path", m1.Suspects)
	}
	if m1.PingReqsSent == 0 {
		t.Error("B1 never sent a PING-REQ over the broken path")
	}
	if m1.IndirectAcks == 0 {
		t.Error("B1 never received an indirect ack for B2")
	}
	if m3 := nodes["B3"].Metrics(); m3.PingReqsRelayed == 0 {
		t.Error("B3 never relayed an indirect probe")
	}

	// Control: the identical scenario without indirect probing spins
	// the suspect/refute cycle — suspicion transitions and inflated
	// incarnations — which is exactly what the relays prevented above.
	netC, clockC, nodesC, idsC := swimTriangle(t, func(c *Config) { c.IndirectRelays = -1 })
	if err := SimStep(netC, clockC, idsC, nodesC, 250*time.Millisecond, 8); err != nil {
		t.Fatal(err)
	}
	netC.SetLink("B1", "B2", false)
	if err := SimStep(netC, clockC, idsC, nodesC, 250*time.Millisecond, 40); err != nil {
		t.Fatal(err)
	}
	mc := nodesC["B1"].Metrics()
	m, _ := nodesC["B1"].Member("B2")
	if mc.Suspects == 0 || m.Incarnation <= 1 {
		t.Fatalf("control run without relays stayed stable (suspects=%d, B2@%d); the scenario is vacuous",
			mc.Suspects, m.Incarnation)
	}
}

// swimChurn drives a deterministic churn script over a 4-broker full
// mesh — isolate B4, let the detector and gossip walk it to dead,
// heal, reconverge — and returns each node's final member-state map
// plus the nodes themselves.
func swimChurn(t *testing.T, legacy bool) (map[string]map[string]State, map[string]*Node, func(int)) {
	t.Helper()
	net := simnet.New()
	clock := simnet.NewClock()
	ids := []string{"B1", "B2", "B3", "B4"}
	for _, id := range ids {
		if err := net.AddBroker(id, store.PolicyPairwise); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if err := net.Connect(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := Config{
		PingEvery:     500 * time.Millisecond,
		SuspectMisses: 2,
		DeadAfter:     2 * time.Second,
		GossipEvery:   time.Second,
		ReconnectMin:  500 * time.Millisecond,
		ReconnectMax:  2 * time.Second,
		Seed:          42,
		LegacyGossip:  legacy,
	}
	nodes := make(map[string]*Node)
	for _, id := range ids {
		n, err := NewSimNode(net, id, clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			nodes[a].AddMember(Member{ID: b, Addr: b}, true)
			nodes[b].AddMember(Member{ID: a, Addr: a}, true)
		}
	}
	step := func(ticks int) {
		if err := SimStep(net, clock, ids, nodes, 250*time.Millisecond, ticks); err != nil {
			t.Fatal(err)
		}
	}

	step(8) // assemble
	// Churn: B4 loses every link (crash-like), stays gone past
	// DeadAfter, then returns.
	for _, other := range []string{"B1", "B2", "B3"} {
		net.SetLink("B4", other, false)
	}
	step(40)
	for _, other := range []string{"B1", "B2", "B3"} {
		if m, _ := nodes[other].Member("B4"); m.State != StateDead {
			t.Fatalf("%s run: %s sees isolated B4 as %v, want dead", gossipMode(legacy), other, m.State)
		}
	}
	for _, other := range []string{"B1", "B2", "B3"} {
		net.SetLink("B4", other, true)
	}
	step(40)

	final := make(map[string]map[string]State)
	for _, id := range ids {
		states := make(map[string]State)
		for _, m := range nodes[id].Members() {
			states[m.ID] = m.State
		}
		final[id] = states
	}
	return final, nodes, step
}

func gossipMode(legacy bool) string {
	if legacy {
		return "legacy"
	}
	return "delta"
}

// TestDeltaDisseminationMatchesOracle pins that delta-only
// dissemination converges to the exact member map the full-snapshot
// oracle produces under the same seeded churn — and that the delta
// run really is delta-only in steady state (zero full-snapshot gossip
// frames once converged, while delta frames keep flowing).
func TestDeltaDisseminationMatchesOracle(t *testing.T) {
	oracle, _, _ := swimChurn(t, true)
	delta, nodes, step := swimChurn(t, false)

	for id, want := range oracle {
		got := delta[id]
		if len(got) != len(want) {
			t.Fatalf("node %s member maps diverge: delta %v vs oracle %v", id, got, want)
		}
		for member, state := range want {
			if got[member] != state {
				t.Errorf("node %s sees %s as %v, oracle says %v", id, member, got[member], state)
			}
		}
		if want["B4"] != StateAlive && id != "B4" {
			t.Fatalf("oracle run left B4 %v at %s; the heal never converged", want["B4"], id)
		}
	}

	// Steady state: no full snapshots, deltas still flowing.
	before := make(map[string]NodeMetrics)
	for id, n := range nodes {
		before[id] = n.Metrics()
	}
	step(20)
	var deltaFrames uint64
	for id, n := range nodes {
		m := n.Metrics()
		if m.GossipSent != before[id].GossipSent {
			t.Errorf("node %s sent %d full-snapshot gossip frames in steady state",
				id, m.GossipSent-before[id].GossipSent)
		}
		deltaFrames += m.DeltaFramesSent - before[id].DeltaFramesSent
	}
	if deltaFrames == 0 {
		t.Error("no delta frames flowed in steady state")
	}
}

// deferredDialLink captures Connect callbacks so a test can interleave
// dial completion with other events deterministically.
type deferredDialLink struct {
	nullLink
	dials []func(established bool, err error)
}

func (l *deferredDialLink) Connect(peer, addr string, done func(established bool, err error)) {
	l.dials = append(l.dials, done)
}

// TestDialRaceDoesNotInflateIncarnation pins the inbound-EOF dial
// race (ISSUE 8 satellite): while our re-dial toward B is in flight, B
// dials back first — its inbound pong refutes the suspicion — and only
// then does the EOF of the old, losing connection fire PeerDown. That
// stale link-down must not re-suspect the member (it describes the
// connection we already abandoned), or every connection race would
// cost an incarnation bump and a round of refutation gossip.
func TestDialRaceDoesNotInflateIncarnation(t *testing.T) {
	l := &deferredDialLink{nullLink: nullLink{self: "A"}}
	now := time.Unix(0, 0)
	n := NewNode(Member{ID: "A"}, l, Config{Clock: func() time.Time { return now }})

	n.AddMember(Member{ID: "B", Addr: "b:1"}, true)
	n.PeerUp("B") // refutes suspect-until-contacted: alive@1
	if m, _ := n.Member("B"); m.State != StateAlive || m.Incarnation != 1 {
		t.Fatalf("after contact B = %+v, want alive@1", m)
	}

	// The link drops for real: suspect, no incarnation change (only
	// refutations bump it).
	n.PeerDown("B")
	if m, _ := n.Member("B"); m.State != StateSuspect || m.Incarnation != 1 {
		t.Fatalf("after link loss B = %+v, want suspect@1", m)
	}

	// The reconnect loop starts a dial; completion is in our hands.
	now = now.Add(time.Second)
	n.Tick()
	if len(l.dials) != 1 {
		t.Fatalf("reconnect loop started %d dials, want 1", len(l.dials))
	}

	// B's own dial-back lands first: inbound evidence refutes the
	// suspicion at a fresh incarnation.
	n.HandleControl("B", broker.Message{Kind: broker.MsgPong})
	if m, _ := n.Member("B"); m.State != StateAlive || m.Incarnation != 2 {
		t.Fatalf("after refuting pong B = %+v, want alive@2", m)
	}

	// The old connection's EOF arrives while our dial is still in
	// flight: it must NOT re-suspect (and so must not force another
	// refutation bump later).
	n.PeerDown("B")
	if m, _ := n.Member("B"); m.State != StateAlive || m.Incarnation != 2 {
		t.Fatalf("stale EOF during re-dial re-suspected B: %+v, want alive@2", m)
	}

	// Our dial completes; the member is simply up — no state change,
	// no further incarnation inflation.
	l.dials[0](true, nil)
	if m, _ := n.Member("B"); m.State != StateAlive || m.Incarnation != 2 {
		t.Fatalf("after dial completion B = %+v, want alive@2", m)
	}
	if s := n.Metrics().Suspects; s != 1 {
		t.Fatalf("suspect transitions = %d, want exactly the real link loss", s)
	}
}
