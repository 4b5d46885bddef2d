package cluster

// Deterministic chaos harness: a broker chain with durable journals
// under a seeded schedule of crash-restarts, partitions, message
// drops, duplication, and delays — all on the simulator, so a seed
// fully determines the run. The harness is the reproducible half of
// the robustness story: the same seed run with faults disabled is the
// oracle, and after the faulted run heals (reconnect loop + digest
// reconciliation) its probe deliveries must match the oracle's
// exactly. The TCP kill -9 test covers the same recovery path against
// real processes; this harness covers the schedule space.

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/obs"
	"probsum/internal/persist"
	"probsum/internal/simnet"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/pubsub"
)

// ChaosConfig tunes one chaos run. Zero values select the defaults
// noted on each field.
type ChaosConfig struct {
	// Brokers is the chain length (4). Each broker hosts one client.
	Brokers int
	// Rounds is the number of fault rounds (8). Every round issues a
	// few client operations and may crash a broker or cut a link.
	Rounds int
	// Seed determines the entire schedule (1).
	Seed uint64
	// Faults enables injection; with false the same seed produces the
	// oracle run: identical operations, no faults.
	Faults bool
	// SyncEvery is the journal fsync batch (1 — every record durable,
	// so a crash loses nothing that was applied; larger values lose
	// an unsynced tail that digest reconciliation must repair).
	SyncEvery int
	// DropRate / DupRate / DelayRate are the per-message injection
	// probabilities on broker links during the fault phase
	// (0.03 / 0.03 / 0.05). All are forced to zero for the heal and
	// probe phases.
	DropRate, DupRate, DelayRate float64
	// MaxHealRounds bounds the gossip rounds the heal phase may take
	// to converge every link digest (24).
	MaxHealRounds int
	// Routed attaches a rendezvous router to every broker, so client
	// subscriptions route toward their cell owners instead of flooding
	// the chain. The flood oracle of the same seed stays the delivery
	// comparison surface.
	Routed bool
	// KillRendezvous overrides the scripted fault of the middle round
	// to crash the broker owning the schedule's rendezvous cell — the
	// worst-case routing fault. The override applies in the oracle run
	// too (crashIdx shapes the operation schedule) and draws nothing
	// from the RNG, so both runs stay op-for-op aligned.
	KillRendezvous bool
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Brokers <= 1 {
		c.Brokers = 4
	}
	if c.Rounds <= 0 {
		c.Rounds = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 1
	}
	if c.DropRate == 0 {
		c.DropRate = 0.03
	}
	if c.DupRate == 0 {
		c.DupRate = 0.03
	}
	if c.DelayRate == 0 {
		c.DelayRate = 0.05
	}
	if c.MaxHealRounds <= 0 {
		c.MaxHealRounds = 24
	}
	return c
}

// ChaosReport summarizes one run.
type ChaosReport struct {
	// Crashes / Partitions count injected faults; Subscribes /
	// Unsubscribes the client operations issued.
	Crashes      int
	Partitions   int
	Subscribes   int
	Unsubscribes int
	// Recovered sums the journal records replayed across restarts.
	Recovered int
	// HealRounds is how many gossip rounds the heal phase took until
	// every link digest converged; Converged is false when the bound
	// ran out first.
	HealRounds int
	Converged  bool
	// SyncRequests / RootsResent / StalePruned aggregate the digest
	// protocol's repair work across all brokers.
	SyncRequests int
	RootsResent  int
	StalePruned  int
	// RoutedSubs / RoutedPubs aggregate how much of the run's traffic
	// actually took the rendezvous path (zero in flood mode) — the
	// non-vacuousness check for routed runs.
	RoutedSubs int
	RoutedPubs int
	// Probes is the number of probe publications; Deliveries the
	// per-client sets of "subID/pubID" probe notifications — the
	// oracle comparison surface.
	Probes     int
	Deliveries map[string]map[string]bool
	// FlightDump is the run's flight-recorder tail (crashes, restarts,
	// partitions, suspicions, deaths, recoveries, re-announces),
	// oldest-first — attached to failure reports so a divergent run
	// explains itself.
	FlightDump []string
}

// chaosRun carries one run's live state.
type chaosRun struct {
	cfg     ChaosConfig
	rng     *rand.Rand
	net     *simnet.Network
	clock   *simnet.Clock
	ids     []string
	edges   [][2]string
	nodes   map[string]*Node
	stores  map[string]*persist.MemStore
	routers map[string]*Router
	flight  *obs.FlightRecorder
	report  ChaosReport
}

// chaosRendezvousProbe is the attribute-0 value whose cell owner the
// KillRendezvous schedule crashes — the midpoint of the range client
// subscriptions draw from, so live routes cross it.
const chaosRendezvousProbe = 450

// RunChaos executes one seeded chaos (or oracle) run and returns its
// report. Errors are structural (a broker refused an operation), not
// behavioral — behavioral divergence is what the report's Deliveries
// and Converged fields are for.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	r := &chaosRun{
		cfg:     cfg,
		rng:     rand.New(rand.NewPCG(cfg.Seed, cfg.Seed|1)),
		clock:   simnet.NewClock(),
		nodes:   make(map[string]*Node),
		stores:  make(map[string]*persist.MemStore),
		routers: make(map[string]*Router),
	}
	r.flight = obs.NewFlightRecorder(512, r.clock.Now)
	var opts []simnet.Option
	if cfg.Faults {
		opts = append(opts,
			simnet.WithFailures(cfg.DropRate, cfg.DupRate, cfg.Seed^0xc4a0),
			simnet.WithDelays(cfg.DelayRate, cfg.Seed^0xd31a))
	}
	r.net = simnet.New(opts...)

	for i := 0; i < cfg.Brokers; i++ {
		id := fmt.Sprintf("B%d", i+1)
		r.ids = append(r.ids, id)
		if err := r.net.AddBroker(id, store.PolicyPairwise); err != nil {
			return nil, err
		}
		st := persist.NewMemStore()
		r.stores[id] = st
		b := r.net.Broker(id)
		b.SetJournal(pubsub.NewBrokerJournal(b, st, cfg.SyncEvery))
	}
	for i := 0; i+1 < cfg.Brokers; i++ {
		a, b := r.ids[i], r.ids[i+1]
		if err := r.net.Connect(a, b); err != nil {
			return nil, err
		}
		r.edges = append(r.edges, [2]string{a, b})
	}
	ncfg := Config{
		PingEvery:     500 * time.Millisecond,
		SuspectMisses: 2,
		DeadAfter:     2 * time.Second,
		GossipEvery:   time.Second,
		ReconnectMin:  500 * time.Millisecond,
		ReconnectMax:  2 * time.Second,
		Seed:          cfg.Seed ^ 0x0de,
		Events:        r.flight,
	}
	for _, id := range r.ids {
		n, err := NewSimNode(r.net, id, r.clock, ncfg)
		if err != nil {
			return nil, err
		}
		r.nodes[id] = n
	}
	for _, e := range r.edges {
		r.nodes[e[0]].AddMember(Member{ID: e[1], Addr: e[1]}, true)
		r.nodes[e[1]].AddMember(Member{ID: e[0], Addr: e[0]}, true)
	}
	if cfg.Routed {
		for _, id := range r.ids {
			r.routers[id] = AttachRouter(r.nodes[id], r.net.Broker(id))
		}
	}
	for _, id := range r.ids {
		if err := r.net.AttachClient("c-"+id, id); err != nil {
			return nil, err
		}
	}

	// Assemble the membership layer before any fault.
	if err := SimStep(r.net, r.clock, r.ids, r.nodes, 250*time.Millisecond, 8); err != nil {
		return nil, err
	}

	// live tracks the schedule's subscriptions: subID → owner client
	// index and box. Both the faulted and the oracle run derive the
	// same schedule from it.
	type liveSub struct {
		client int
		lo, hi int64
	}
	live := make(map[string]liveSub)
	liveIDs := []string{} // deterministic iteration order
	subSeq := 0

	for round := 0; round < cfg.Rounds; round++ {
		// Scripted fault for this round (decided by the seed whether
		// or not faults are enabled, so the operation schedule below
		// is identical in both runs).
		crashIdx, cutEdge := -1, -1
		switch r.rng.IntN(3) {
		case 0:
			crashIdx = r.rng.IntN(cfg.Brokers)
		case 1:
			cutEdge = r.rng.IntN(len(r.edges))
		}
		if cfg.KillRendezvous && round == cfg.Rounds/2 {
			// Crash the rendezvous owner of the schedule's home cell
			// this round, whatever the script drew.
			owner := RendezvousOwner(chaosRendezvousProbe, r.ids)
			for i, id := range r.ids {
				if id == owner {
					crashIdx, cutEdge = i, -1
				}
			}
		}
		if crashIdx >= 0 {
			r.report.Crashes++
			if cfg.Faults {
				r.flight.Recordf("crash", "harness", "round %d: %s", round, r.ids[crashIdx])
				if err := r.crash(r.ids[crashIdx]); err != nil {
					return nil, err
				}
			}
		}
		if cutEdge >= 0 {
			r.report.Partitions++
			if cfg.Faults {
				r.flight.Recordf("partition", "harness", "round %d: %s-%s cut", round, r.edges[cutEdge][0], r.edges[cutEdge][1])
				r.net.SetLink(r.edges[cutEdge][0], r.edges[cutEdge][1], false)
			}
		}
		if err := SimStep(r.net, r.clock, r.ids, r.nodes, 250*time.Millisecond, 4); err != nil {
			return nil, err
		}

		// Client operations from brokers the script has alive.
		for op := 0; op < 2; op++ {
			ci := r.rng.IntN(cfg.Brokers)
			unsub := r.rng.IntN(3) == 0 && len(liveIDs) > 0
			var victim int
			if unsub {
				victim = r.rng.IntN(len(liveIDs))
			}
			lo := int64(r.rng.IntN(900))
			width := int64(20 + r.rng.IntN(180))
			if ci == crashIdx {
				continue // its broker is down this round, in both runs
			}
			client := "c-" + r.ids[ci]
			if unsub {
				subID := liveIDs[victim]
				if live[subID].client != ci {
					continue // only the owner can unsubscribe
				}
				delete(live, subID)
				liveIDs = append(liveIDs[:victim], liveIDs[victim+1:]...)
				r.report.Unsubscribes++
				if err := r.net.ClientUnsubscribe(client, subID); err != nil {
					return nil, err
				}
			} else {
				subSeq++
				subID := fmt.Sprintf("s%d", subSeq)
				live[subID] = liveSub{client: ci, lo: lo, hi: lo + width}
				liveIDs = append(liveIDs, subID)
				r.report.Subscribes++
				s := subscription.New(interval.New(lo, lo+width), interval.New(lo, lo+width))
				if err := r.net.ClientSubscribe(client, subID, s); err != nil {
					return nil, err
				}
			}
			if _, err := r.net.Run(); err != nil {
				return nil, err
			}
		}
		if err := SimStep(r.net, r.clock, r.ids, r.nodes, 250*time.Millisecond, 4); err != nil {
			return nil, err
		}

		// Heal this round's faults.
		if cutEdge >= 0 && cfg.Faults {
			r.flight.Recordf("heal", "harness", "round %d: %s-%s restored", round, r.edges[cutEdge][0], r.edges[cutEdge][1])
			r.net.SetLink(r.edges[cutEdge][0], r.edges[cutEdge][1], true)
		}
		if crashIdx >= 0 && cfg.Faults {
			r.flight.Recordf("restart", "harness", "round %d: %s", round, r.ids[crashIdx])
			if err := r.restart(r.ids[crashIdx]); err != nil {
				return nil, err
			}
		}
		if err := SimStep(r.net, r.clock, r.ids, r.nodes, 250*time.Millisecond, 4); err != nil {
			return nil, err
		}
	}

	// Heal phase: injection off, everything alive; gossip rounds run
	// until every link digest converges (bounded).
	r.net.SetFailureRates(0, 0, 0)
	if err := SimStep(r.net, r.clock, r.ids, r.nodes, 250*time.Millisecond, 12); err != nil {
		return nil, err
	}
	for r.report.HealRounds = 0; r.report.HealRounds < cfg.MaxHealRounds; r.report.HealRounds++ {
		if r.converged() {
			r.report.Converged = true
			break
		}
		if err := SimStep(r.net, r.clock, r.ids, r.nodes, ncfg.GossipEvery, 1); err != nil {
			return nil, err
		}
	}
	if !r.report.Converged && r.converged() {
		r.report.Converged = true
	}

	// Probe phase: one publication through the midpoint of every live
	// subscription, published from a rotating client. Deliveries of
	// exactly these IDs are the oracle comparison surface.
	r.net.ClearDeliveries()
	sort.Strings(liveIDs)
	for i, subID := range liveIDs {
		ls := live[subID]
		mid := (ls.lo + ls.hi) / 2
		from := "c-" + r.ids[i%cfg.Brokers]
		pubID := fmt.Sprintf("probe-%d", i)
		r.report.Probes++
		if err := r.net.ClientPublish(from, pubID, subscription.NewPublication(mid, mid)); err != nil {
			return nil, err
		}
		if _, err := r.net.Run(); err != nil {
			return nil, err
		}
	}
	r.report.Deliveries = make(map[string]map[string]bool)
	for _, id := range r.ids {
		set := make(map[string]bool)
		for _, m := range r.net.Delivered("c-" + id) {
			if m.Kind == broker.MsgNotify {
				set[m.SubID+"/"+m.PubID] = true
			}
		}
		r.report.Deliveries["c-"+id] = set
	}
	r.report.FlightDump = r.flight.Dump()
	for _, id := range r.ids {
		m := r.net.Broker(id).Metrics()
		r.report.SyncRequests += m.SyncRequests
		r.report.RootsResent += m.SyncRootsResent
		r.report.StalePruned += m.SyncStalePruned
		r.report.RoutedSubs += m.RoutedSubs
		r.report.RoutedPubs += m.RoutedPubs
	}
	return &r.report, nil
}

// crash kills a broker: the unsynced journal tail is lost with the
// process, and the simulator drops everything sent to it until
// restart.
func (r *chaosRun) crash(id string) error {
	r.stores[id].Crash()
	return r.net.CrashBroker(id)
}

// restart recovers a fresh broker from the crashed one's store and
// reinstalls it — the simulated form of restarting brokerd over the
// same -data-dir.
func (r *chaosRun) restart(id string) error {
	b, err := broker.New(id, store.PolicyPairwise)
	if err != nil {
		return err
	}
	rec, err := pubsub.RecoverBroker(b, r.stores[id])
	if err != nil {
		return err
	}
	r.report.Recovered += rec.SnapshotOps + rec.JournalRecords
	b.SetJournal(pubsub.NewBrokerJournal(b, r.stores[id], r.cfg.SyncEvery))
	if err := r.net.RestartBroker(id, b); err != nil {
		return err
	}
	// The recovered broker keeps its membership node; only the control
	// handler (and the router, when routing is on) must be re-pointed
	// at the new broker object.
	b.SetControlHandler(r.nodes[id].HandleControl)
	if rt := r.routers[id]; rt != nil {
		rt.Rebind(b)
	}
	return nil
}

// converged reports whether every link's sender digest matches the
// receiver's received digest, in both directions.
func (r *chaosRun) converged() bool {
	for _, e := range r.edges {
		for _, dir := range [][2]string{{e[0], e[1]}, {e[1], e[0]}} {
			sender, receiver := r.net.Broker(dir[0]), r.net.Broker(dir[1])
			if sender == nil || receiver == nil {
				return false
			}
			sent, ok := sender.LinkDigest(dir[1])
			if !ok {
				return false
			}
			if sent != receiver.ReceivedDigest(dir[0]) {
				return false
			}
		}
	}
	return true
}
