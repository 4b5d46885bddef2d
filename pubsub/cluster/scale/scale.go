// Package scale is a deterministic membership-at-scale harness: it
// runs hundreds to thousands of brokers, each with its cluster.Node,
// on the internal/simnet simulator (one goroutine, no sockets) and
// measures what the paper's evaluation cares about at that size —
// how many protocol rounds a sparse overlay needs before every node
// sees every member alive, how many gossip bytes per member per round
// the steady state costs once it has, and how many subscription frames
// per link the content layer pays, flooded or routed.
//
// The overlay is a ring plus a few pseudo-random chord links per node
// (a small-world graph: O(log n) diameter at constant degree), the
// clock is a simnet.Clock advanced one PingEvery per round, and every
// random choice derives from Config.Seed — the same seed always
// produces the same round-by-round trace, which is what lets CI gate
// on the numbers.
package scale

import (
	"fmt"
	"math/rand/v2"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/simnet"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/pubsub/cluster"
)

// Config sizes one scale run. Zero values select the noted defaults.
type Config struct {
	// N is the member count (default 200).
	N int
	// Chords is the number of extra pseudo-random overlay links per
	// node beyond the ring (default 2; degree ≈ 2 + 2·Chords).
	Chords int
	// Seed drives every random choice of the run (default 1).
	Seed uint64
	// MaxRounds bounds the convergence phase (default 200): a run
	// that has not converged by then fails.
	MaxRounds int
	// SteadyRounds is the post-convergence measurement window
	// (default 20).
	SteadyRounds int
	// LegacyGossip runs the oracle protocol (periodic full-snapshot
	// frames, no deltas) for comparison runs.
	LegacyGossip bool
	// Subs injects that many client subscriptions after convergence
	// and counts the subscription-announcement frames each broker link
	// carries (default 0: membership-only run).
	Subs int
	// Pubs publishes that many probe publications through injected
	// subscriptions and records the delivery set (default 0; needs
	// Subs > 0).
	Pubs int
	// Routed attaches a rendezvous router to every broker, so
	// subscriptions route toward their cell owners instead of flooding
	// every link. A flood run of the same seed is the oracle: its
	// DeliveryHash must match and its SubFramesPerLink is the baseline
	// structured routing has to beat.
	Routed bool
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 200
	}
	if c.Chords == 0 {
		c.Chords = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 200
	}
	if c.SteadyRounds == 0 {
		c.SteadyRounds = 20
	}
	return c
}

// Report is what one run measured.
type Report struct {
	// N and Links describe the graph: member count and undirected
	// overlay links built.
	N     int
	Links int
	// MaxDegree is the largest per-node overlay degree (the route
	// table a node maintains links for stays this sparse even though
	// its member map grows to N).
	MaxDegree int
	// ConvergedRound is the first round after which every node saw
	// every member alive (rounds are PingEvery apart).
	ConvergedRound int
	// ConvergedTime is the simulated wall clock of convergence.
	ConvergedTime time.Duration
	// SteadyBytesPerMemberRound is the steady-state gossip cost:
	// control bytes sent per member per round, averaged over the
	// measurement window.
	SteadyBytesPerMemberRound float64
	// SteadyFullGossipFrames counts full-snapshot membership frames
	// sent during the steady window — zero when delta dissemination
	// is doing its job.
	SteadyFullGossipFrames uint64
	// SteadyDeltaFrames counts bounded delta frames sent during the
	// steady window.
	SteadyDeltaFrames uint64
	// TotalControlBytes is the cumulative control-plane traffic of
	// the whole run, bootstrap included.
	TotalControlBytes uint64
	// SubFrames counts the subscription-announcement frames (SUB,
	// SUBBATCH, route-announce) that crossed broker links during the
	// subscription phase; SubFramesPerLink is the same count per
	// directed overlay link — the headline routing-vs-flood metric.
	SubFrames        uint64
	SubFramesPerLink float64
	// RouteTables / RouteEntries sum the routed per-(link, target)
	// coverage tables and their entries across brokers (zero in flood
	// mode).
	RouteTables  int
	RouteEntries int
	// Deliveries counts probe notifications reaching clients;
	// DeliveryHash folds every (client, sub, pub) delivery
	// order-independently. A routed run and the flood run of the same
	// seed must agree on both — the delivery-equivalence gate.
	Deliveries   int
	DeliveryHash uint64
	// SyncRequests sums the digest-repair exchanges brokers started
	// over the run, and DigestMismatches counts the directed overlay
	// links whose sender and receiver digests disagree after the
	// gossip rounds that follow the content phase. Both are zero when
	// every announcement reached its link's far end exactly as sent.
	SyncRequests     int
	DigestMismatches int
	// FramesByKind counts every frame brokers sent through the
	// convergence, steady and content phases, keyed by wire kind
	// name — the per-kind traffic profile the observability layer
	// exposes per link on real transports, summed across the
	// simulated overlay here.
	FramesByKind map[string]uint64
}

// digestRounds is how many gossip rounds follow the content phase so
// link digests ride gossip over the final subscription state.
const digestRounds = 5

// harness is one run's simulated overlay: the network, its clock,
// and the membership node of every broker, driven single-threaded by
// cluster.SimStep.
type harness struct {
	net   *simnet.Network
	clock *simnet.Clock
	ids   []string
	nodes map[string]*cluster.Node
	// edges holds each undirected overlay link once, as a sorted pair.
	edges map[[2]string]bool
}

// hash64 is FNV-1a with an avalanche tail, for order-independent
// XOR-folding of delivery records.
func hash64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// converged reports whether every node sees all n members alive.
func (h *harness) converged() bool {
	for _, n := range h.nodes {
		alive, total := n.AliveCount()
		if alive != len(h.nodes) || total != len(h.nodes) {
			return false
		}
	}
	return true
}

// totals sums the traffic counters across all nodes.
func (h *harness) totals() (bytes, fullGossip, deltaFrames uint64) {
	for _, n := range h.nodes {
		m := n.Metrics()
		bytes += m.ControlBytesSent
		fullGossip += m.GossipSent
		deltaFrames += m.DeltaFramesSent
	}
	return
}

// subFrames sums the subscription-announcement kinds of a per-kind
// send count.
func subFrames(sent map[broker.MsgKind]uint64) uint64 {
	return sent[broker.MsgSubscribe] + sent[broker.MsgSubscribeBatch] + sent[broker.MsgRouteAnnounce]
}

// digestMismatches counts the directed overlay links whose sender
// digest differs from what the receiver recorded.
func (h *harness) digestMismatches() int {
	bad := 0
	for l := range h.edges {
		for _, dir := range [][2]string{{l[0], l[1]}, {l[1], l[0]}} {
			sent, ok := h.net.Broker(dir[0]).LinkDigest(dir[1])
			if !ok || sent != h.net.Broker(dir[1]).ReceivedDigest(dir[0]) {
				bad++
			}
		}
	}
	return bad
}

// Run executes one scale experiment.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 3 {
		return Report{}, fmt.Errorf("scale: need at least 3 members, got %d", cfg.N)
	}
	const pingEvery = time.Second
	h := &harness{
		net:   simnet.New(),
		clock: simnet.NewClock(),
		ids:   make([]string, cfg.N),
		nodes: make(map[string]*cluster.Node, cfg.N),
		edges: make(map[[2]string]bool),
	}
	ncfg := cluster.Config{
		PingEvery:     pingEvery,
		GossipEvery:   pingEvery,
		SuspectMisses: 3,
		DeadAfter:     10 * pingEvery,
		ReconnectMin:  pingEvery,
		ReconnectMax:  4 * pingEvery,
		Seed:          cfg.Seed,
		LegacyGossip:  cfg.LegacyGossip,
	}
	for i := range h.ids {
		id := fmt.Sprintf("b%04d", i)
		h.ids[i] = id
		if err := h.net.AddBroker(id, store.PolicyPairwise); err != nil {
			return Report{}, err
		}
		n, err := cluster.NewSimNode(h.net, id, h.clock, ncfg)
		if err != nil {
			return Report{}, err
		}
		h.nodes[id] = n
		if err := h.net.AttachClient("c-"+id, id); err != nil {
			return Report{}, err
		}
		if cfg.Routed {
			cluster.AttachRouter(n, h.net.Broker(id))
		}
	}

	// Overlay: ring + chords. Each link is registered on both ends, so
	// both sides probe and both sides gossip across it — and the
	// brokers carry the same graph as their content overlay.
	degree := make([]int, cfg.N)
	connect := func(i, j int) bool {
		if i == j {
			return false
		}
		a, b := h.ids[i], h.ids[j]
		h.nodes[a].AddMember(cluster.Member{ID: b, Addr: b}, true)
		h.nodes[b].AddMember(cluster.Member{ID: a, Addr: a}, true)
		if err := h.net.Connect(a, b); err != nil {
			return false
		}
		h.edges[[2]string{min(a, b), max(a, b)}] = true
		degree[i]++
		degree[j]++
		return true
	}
	links := 0
	for i := 0; i < cfg.N; i++ {
		if connect(i, (i+1)%cfg.N) {
			links++
		}
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed|1))
	for i := 0; i < cfg.N; i++ {
		for c := 0; c < cfg.Chords; c++ {
			if connect(i, rng.IntN(cfg.N)) {
				links++
			}
		}
	}

	rep := Report{N: cfg.N, Links: links}
	for _, d := range degree {
		rep.MaxDegree = max(rep.MaxDegree, d)
	}

	// Phase 1: converge.
	for rep.ConvergedRound = 1; ; rep.ConvergedRound++ {
		if rep.ConvergedRound > cfg.MaxRounds {
			return rep, fmt.Errorf("scale: n=%d not converged after %d rounds", cfg.N, cfg.MaxRounds)
		}
		if err := cluster.SimStep(h.net, h.clock, h.ids, h.nodes, pingEvery, 1); err != nil {
			return rep, fmt.Errorf("scale: %w", err)
		}
		if h.converged() {
			break
		}
	}
	rep.ConvergedTime = time.Duration(rep.ConvergedRound) * pingEvery

	// Phase 2: steady-state measurement window.
	bytes0, full0, delta0 := h.totals()
	for r := 0; r < cfg.SteadyRounds; r++ {
		if err := cluster.SimStep(h.net, h.clock, h.ids, h.nodes, pingEvery, 1); err != nil {
			return rep, fmt.Errorf("scale: %w", err)
		}
	}
	bytes1, full1, delta1 := h.totals()
	rep.SteadyBytesPerMemberRound = float64(bytes1-bytes0) / float64(cfg.N*cfg.SteadyRounds)
	rep.SteadyFullGossipFrames = full1 - full0
	rep.SteadyDeltaFrames = delta1 - delta0
	rep.TotalControlBytes = bytes1

	// Phase 3: content layer. Inject client subscriptions over the
	// converged overlay (every draw comes from the same seeded stream,
	// so a routed and a flood run issue identical operations), count
	// the announcement frames they cost, then probe with publications
	// and fold the delivery set. Gossip rounds then carry every link's
	// digest over the final state: any repair they start, or any
	// digest still off after them, is a lost or stray announcement.
	sent := h.net.SentByKind()
	if cfg.Subs > 0 {
		type subRec struct{ lo, hi int64 }
		subs := make([]subRec, cfg.Subs)
		for k := range subs {
			origin := h.ids[rng.IntN(cfg.N)]
			lo := int64(rng.IntN(4000))
			width := int64(16 + rng.IntN(112))
			subs[k] = subRec{lo, lo + width}
			s := subscription.New(interval.New(lo, lo+width), interval.New(lo, lo+width))
			if err := h.net.ClientSubscribe("c-"+origin, fmt.Sprintf("s%05d", k), s); err != nil {
				return rep, err
			}
			if _, err := h.net.Run(); err != nil {
				return rep, fmt.Errorf("scale: %w", err)
			}
		}
		rep.SubFrames = subFrames(h.net.SentByKind()) - subFrames(sent)
		rep.SubFramesPerLink = float64(rep.SubFrames) / float64(2*links)
		for _, id := range h.ids {
			t, e := h.net.Broker(id).RouteTableStats()
			rep.RouteTables += t
			rep.RouteEntries += e
		}
		for k := 0; k < cfg.Pubs; k++ {
			sr := subs[k%len(subs)]
			mid := (sr.lo + sr.hi) / 2
			origin := h.ids[rng.IntN(cfg.N)]
			if err := h.net.ClientPublish("c-"+origin, fmt.Sprintf("p%05d", k), subscription.NewPublication(mid, mid)); err != nil {
				return rep, err
			}
			if _, err := h.net.Run(); err != nil {
				return rep, fmt.Errorf("scale: %w", err)
			}
		}
		for _, id := range h.ids {
			for _, m := range h.net.DeliveredSince("c-"+id, 0) {
				if m.Kind == broker.MsgNotify {
					rep.Deliveries++
					rep.DeliveryHash ^= hash64("c-" + id + "|" + m.SubID + "|" + m.PubID)
				}
			}
		}
		sent = h.net.SentByKind()

		if err := cluster.SimStep(h.net, h.clock, h.ids, h.nodes, pingEvery, digestRounds); err != nil {
			return rep, fmt.Errorf("scale: %w", err)
		}
		rep.SyncRequests = h.net.TotalMetrics().SyncRequests
		rep.DigestMismatches = h.digestMismatches()
	}
	rep.FramesByKind = make(map[string]uint64, len(sent))
	for kind, count := range sent {
		rep.FramesByKind[kind.String()] = count
	}
	return rep, nil
}
