// Package simnet runs a network of brokers deterministically in a
// single goroutine: messages are processed in FIFO order, client
// deliveries are recorded, and optional failure injection (message
// drop and duplication) exercises the protocol's idempotence. All
// randomness is seeded, so a run is a pure function of its inputs.
// Brokers carry internal locking for the concurrent TCP transport,
// but driven from this single goroutine every lock is uncontended and
// every decision sequence is exactly the sequential one — the
// equivalence tests in this package pin that.
package simnet

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"sort"

	"probsum/internal/broker"
	"probsum/internal/store"
	"probsum/internal/subscription"
)

// item is one in-flight message addressed to a broker.
type item struct {
	to   string // destination broker
	from string // arrival port at the destination
	msg  broker.Message
}

// Option configures a Network.
type Option func(*Network)

// WithFailures enables failure injection on broker-to-broker links:
// each message is independently dropped with probability drop and
// duplicated with probability dup, using the seeded stream.
func WithFailures(drop, dup float64, seed uint64) Option {
	return func(n *Network) {
		n.dropRate = drop
		n.dupRate = dup
		n.rng = rand.New(rand.NewPCG(seed, seed|1))
	}
}

// WithDelays enables seeded delay injection on broker-to-broker
// links: each message is independently deferred with probability
// delay — set aside and re-enqueued only once the network would
// otherwise go quiescent, the deterministic analogue of a late packet
// overtaken by everything sent after it. The stream is separate from
// the drop/dup stream, so enabling delays does not perturb existing
// seeded runs.
func WithDelays(delay float64, seed uint64) Option {
	return func(n *Network) {
		n.delayRate = delay
		n.delayRng = rand.New(rand.NewPCG(seed^0xde1a, seed|1))
	}
}

// maxSteps is the runaway guard: the most messages one Run call
// processes before it reports a possible routing loop.
const maxSteps = 1_000_000

// Network is a deterministic in-memory broker overlay.
type Network struct {
	brokers  map[string]*broker.Broker
	clientAt map[string]string // client port -> broker id
	queue    []item
	head     int

	// delivered records notify messages per client, in arrival order.
	delivered map[string][]broker.Message

	dropRate  float64
	dupRate   float64
	rng       *rand.Rand
	delayRate float64
	delayRng  *rand.Rand
	delayedQ  []item

	// downLinks holds partitioned broker pairs (normalized order):
	// every message crossing a down link is dropped, in both
	// directions — the deterministic form of a network partition.
	downLinks map[[2]string]bool

	// crashed marks broker IDs that were CrashBroker'd and not yet
	// restarted: traffic toward them is dropped, like packets to a
	// dead process.
	crashed map[string]bool

	// sent counts, per kind, every message a broker sent — to a
	// neighbor or a client — before anything could discard it.
	sent map[broker.MsgKind]uint64

	dropped     int
	duplicated  int
	partitioned int
}

// New returns an empty network.
func New(opts ...Option) *Network {
	n := &Network{
		brokers:   make(map[string]*broker.Broker),
		clientAt:  make(map[string]string),
		delivered: make(map[string][]broker.Message),
		sent:      make(map[broker.MsgKind]uint64),
	}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// AddBroker creates a broker in the network.
func (n *Network) AddBroker(id string, policy store.Policy, opts ...broker.Option) error {
	if _, dup := n.brokers[id]; dup {
		return fmt.Errorf("simnet: duplicate broker %s", id)
	}
	b, err := broker.New(id, policy, opts...)
	if err != nil {
		return err
	}
	n.brokers[id] = b
	return nil
}

// Broker returns the broker with the given id, or nil.
func (n *Network) Broker(id string) *broker.Broker { return n.brokers[id] }

// BrokerIDs returns all broker identifiers, sorted.
func (n *Network) BrokerIDs() []string {
	out := make([]string, 0, len(n.brokers))
	for id := range n.brokers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Connect links two brokers bidirectionally. Links made after traffic
// has flowed are synchronized: each side's coverage roots for the new
// neighbor (the table backfill ConnectNeighbor performs) are enqueued
// as one SUBBATCH toward it, so a late link carries the subscriptions
// it would have carried had it always existed. Pre-traffic wiring —
// every static topology — synchronizes nothing, so existing runs are
// byte-for-byte unchanged. Call Run to process the sync.
func (n *Network) Connect(a, b string) error {
	ba, ok := n.brokers[a]
	if !ok {
		return fmt.Errorf("simnet: unknown broker %s", a)
	}
	bb, ok := n.brokers[b]
	if !ok {
		return fmt.Errorf("simnet: unknown broker %s", b)
	}
	if err := ba.ConnectNeighbor(b); err != nil {
		return err
	}
	if err := bb.ConnectNeighbor(a); err != nil {
		return err
	}
	for _, dir := range []struct {
		from *broker.Broker
		to   string
	}{{ba, b}, {bb, a}} {
		if roots := dir.from.NeighborRoots(dir.to); len(roots) > 0 {
			n.route(dir.from.ID(), broker.Outbound{To: dir.to, Msg: broker.Message{Kind: broker.MsgSubscribeBatch, Subs: roots}})
		}
	}
	return nil
}

// AttachClient binds a client port to a broker.
func (n *Network) AttachClient(client, brokerID string) error {
	b, ok := n.brokers[brokerID]
	if !ok {
		return fmt.Errorf("simnet: unknown broker %s", brokerID)
	}
	if _, dup := n.clientAt[client]; dup {
		return fmt.Errorf("simnet: duplicate client %s", client)
	}
	b.AttachClient(client)
	n.clientAt[client] = brokerID
	return nil
}

// enqueueFromClient injects a client-originated message.
func (n *Network) enqueueFromClient(client string, msg broker.Message) error {
	bid, ok := n.clientAt[client]
	if !ok {
		return fmt.Errorf("simnet: unknown client %s", client)
	}
	n.queue = append(n.queue, item{to: bid, from: client, msg: msg})
	return nil
}

// ClientSubscribe issues a subscription from a client.
func (n *Network) ClientSubscribe(client, subID string, sub subscription.Subscription) error {
	return n.enqueueFromClient(client, broker.Message{Kind: broker.MsgSubscribe, SubID: subID, Sub: sub})
}

// ClientUnsubscribe cancels a subscription from a client.
func (n *Network) ClientUnsubscribe(client, subID string) error {
	return n.enqueueFromClient(client, broker.Message{Kind: broker.MsgUnsubscribe, SubID: subID})
}

// ClientSubscribeBatch issues a subscription burst from a client as a
// single batch message (one batch admission per broker table).
func (n *Network) ClientSubscribeBatch(client string, subs []broker.BatchSub) error {
	return n.enqueueFromClient(client, broker.Message{Kind: broker.MsgSubscribeBatch, Subs: subs})
}

// ClientUnsubscribeBatch cancels a burst of subscriptions from a
// client as a single batch message.
func (n *Network) ClientUnsubscribeBatch(client string, subIDs []string) error {
	return n.enqueueFromClient(client, broker.Message{Kind: broker.MsgUnsubscribeBatch, SubIDs: subIDs})
}

// ClientPublish issues a publication from a client.
func (n *Network) ClientPublish(client, pubID string, pub subscription.Publication) error {
	return n.enqueueFromClient(client, broker.Message{Kind: broker.MsgPublish, PubID: pubID, Pub: pub})
}

// ClientPublishBatch issues a publication burst from a client as a
// single PUBBATCH message (one shared-lock acquisition per broker).
func (n *Network) ClientPublishBatch(client string, pubs []broker.BatchPub) error {
	return n.enqueueFromClient(client, broker.Message{Kind: broker.MsgPublishBatch, Pubs: pubs})
}

// Run processes queued messages until the network is quiescent,
// returning the number of messages processed. Delayed messages (see
// WithDelays) are re-enqueued each time the immediate queue drains,
// until nothing is left anywhere.
func (n *Network) Run() (int, error) {
	steps := 0
	for {
		for n.head < len(n.queue) {
			if steps >= maxSteps {
				return steps, fmt.Errorf("simnet: exceeded %d steps; possible routing loop", maxSteps)
			}
			it := n.queue[n.head]
			n.head++
			steps++

			b := n.brokers[it.to]
			if b == nil {
				// Destination crashed after this message was queued; the
				// bytes die with the process.
				continue
			}
			outs, err := b.Handle(it.from, it.msg)
			if err != nil {
				return steps, fmt.Errorf("simnet: broker %s: %w", it.to, err)
			}
			for _, o := range outs {
				n.route(b.ID(), o)
			}
			// Compact the consumed prefix occasionally.
			if n.head > 4096 && n.head*2 > len(n.queue) {
				n.queue = append([]item(nil), n.queue[n.head:]...)
				n.head = 0
			}
		}
		if len(n.delayedQ) == 0 {
			return steps, nil
		}
		n.queue = append(n.queue, n.delayedQ...)
		n.delayedQ = nil
	}
}

// linkKey normalizes a broker pair for the partition set.
func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// SetLink controls the broker-to-broker link between a and b: a down
// link drops every message crossing it (both directions), modeling a
// network partition deterministically. Links start up; healing a link
// does not replay what was dropped — recovering lost routing state is
// the cluster layer's healing protocol, which the partition tests
// exercise.
func (n *Network) SetLink(a, b string, up bool) {
	if n.downLinks == nil {
		n.downLinks = make(map[[2]string]bool)
	}
	if up {
		delete(n.downLinks, linkKey(a, b))
	} else {
		n.downLinks[linkKey(a, b)] = true
	}
}

// LinkUp reports whether the a–b link is currently passing messages.
func (n *Network) LinkUp(a, b string) bool {
	return !n.downLinks[linkKey(a, b)]
}

// PartitionDropped reports how many messages down links discarded.
func (n *Network) PartitionDropped() int { return n.partitioned }

// CrashBroker kills a broker abruptly — the deterministic kill -9.
// The broker object is discarded with everything it had in memory;
// messages already queued toward it and everything sent until a
// restart are lost, exactly as packets to a dead process would be.
// Neighbors keep their routing entries for it (nobody told them),
// which is precisely the divergence the digest reconciliation
// protocol exists to repair.
func (n *Network) CrashBroker(id string) error {
	if _, ok := n.brokers[id]; !ok {
		return fmt.Errorf("simnet: unknown broker %s", id)
	}
	delete(n.brokers, id)
	if n.crashed == nil {
		n.crashed = make(map[string]bool)
	}
	n.crashed[id] = true
	return nil
}

// RestartBroker installs a broker under an ID that previously
// crashed — typically a fresh instance recovered from a durability
// store. Traffic toward the ID flows again; nothing lost while it
// was down is replayed.
func (n *Network) RestartBroker(id string, b *broker.Broker) error {
	if !n.crashed[id] {
		return fmt.Errorf("simnet: broker %s did not crash", id)
	}
	if b == nil {
		return fmt.Errorf("simnet: nil broker for %s", id)
	}
	delete(n.crashed, id)
	n.brokers[id] = b
	return nil
}

// Crashed reports whether id is currently crashed.
func (n *Network) Crashed(id string) bool { return n.crashed[id] }

// SetFailureRates adjusts the drop/dup/delay probabilities mid-run
// without touching the seeded streams — how a chaos scenario turns
// injection off for its deterministic probe phase. Rates for streams
// that were never enabled (no WithFailures / WithDelays option) stay
// inert.
func (n *Network) SetFailureRates(drop, dup, delay float64) {
	n.dropRate, n.dupRate, n.delayRate = drop, dup, delay
}

// Inject enqueues a broker-originated message onto the overlay — the
// entry point for layers above the routing protocol (the cluster
// membership layer's pings and gossip). The message crosses the same
// links, partitions, and failure injection as routed traffic; call Run
// to process it.
func (n *Network) Inject(fromBroker string, o broker.Outbound) {
	n.route(fromBroker, o)
}

// route delivers one outbound message from a broker: to a client
// mailbox or onto the link toward a neighbor broker (with optional
// failure injection).
func (n *Network) route(fromBroker string, o broker.Outbound) {
	n.sent[o.Msg.Kind]++
	if o.Msg.Kind == broker.MsgNotify {
		n.delivered[o.To] = append(n.delivered[o.To], o.Msg)
		return
	}
	if n.crashed[o.To] {
		return
	}
	if _, isBroker := n.brokers[o.To]; !isBroker {
		// Non-notify message addressed to a client: deliver it as-is
		// (clients may observe raw publishes in some setups).
		n.delivered[o.To] = append(n.delivered[o.To], o.Msg)
		return
	}
	if n.downLinks[linkKey(fromBroker, o.To)] {
		n.partitioned++
		return
	}
	copies := 1
	if n.rng != nil {
		if n.rng.Float64() < n.dropRate {
			n.dropped++
			return
		}
		if n.rng.Float64() < n.dupRate {
			n.duplicated++
			copies = 2
		}
	}
	for i := 0; i < copies; i++ {
		it := item{to: o.To, from: fromBroker, msg: o.Msg}
		if n.delayRng != nil && n.delayRng.Float64() < n.delayRate {
			n.delayedQ = append(n.delayedQ, it)
			continue
		}
		n.queue = append(n.queue, it)
	}
}

// Delivered returns the notifications received by a client, in order.
func (n *Network) Delivered(client string) []broker.Message {
	msgs := n.delivered[client]
	out := make([]broker.Message, len(msgs))
	copy(out, msgs)
	return out
}

// DeliveredSince returns the notifications a client received after its
// first from ones, in order, without copying: the slice aliases the
// network's log, so callers only read it and only until the next
// operation. Incremental readers use it to stay O(new deliveries)
// per operation where Delivered costs O(all deliveries).
func (n *Network) DeliveredSince(client string, from int) []broker.Message {
	msgs := n.delivered[client]
	if from >= len(msgs) {
		return nil
	}
	return msgs[from:len(msgs):len(msgs)]
}

// ClearDeliveries empties all client mailboxes (useful between
// experiment phases).
func (n *Network) ClearDeliveries() {
	n.delivered = make(map[string][]broker.Message)
}

// SentByKind returns how many messages of each kind brokers have sent
// since the network was created, to neighbors and clients alike. A
// message counts once, when its broker emits it, whether or not a
// partition, a crash or failure injection discards it later;
// client-originated messages do not count.
func (n *Network) SentByKind() map[broker.MsgKind]uint64 {
	return maps.Clone(n.sent)
}

// Dropped and Duplicated report failure-injection activity.
func (n *Network) Dropped() int { return n.dropped }

// Duplicated reports how many messages were duplicated in flight.
func (n *Network) Duplicated() int { return n.duplicated }

// TotalMetrics sums the metrics over all brokers.
func (n *Network) TotalMetrics() broker.Metrics {
	var total broker.Metrics
	for _, b := range n.brokers {
		total.Add(b.Metrics())
	}
	return total
}
