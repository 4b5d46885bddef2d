package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"probsum/internal/broker"
	"probsum/pubsub"
)

// chain is the system under test: brokers B1–B2–B3 as in-process
// pubsub.TCPTransport listeners linked over loopback TCP, one
// publisher connection at B1 and one subscriber connection at B3.
type chain struct {
	tr         *pubsub.TCPTransport
	b1, b2, b3 *pubsub.Broker
	pub, sub   *pubsub.Client

	// Client operations the subscriber has sent; admission is complete
	// when every hop has processed them.
	subsSent, unsubsSent uint64
	// live is the churn window, oldest first.
	live []string
}

// Client connection count of the load generator.
const loadConnections = 2

func newChain(ctx context.Context) (*chain, error) {
	tr, err := pubsub.NewTCPTransport(pubsub.Group, pubsub.Config{})
	if err != nil {
		return nil, err
	}
	c := &chain{tr: tr}
	if err := c.open(ctx); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// open adds and links the brokers and dials the two clients.
func (c *chain) open(ctx context.Context) (err error) {
	for _, p := range []struct {
		id  string
		dst **pubsub.Broker
	}{{"B1", &c.b1}, {"B2", &c.b2}, {"B3", &c.b3}} {
		if *p.dst, err = c.tr.AddBroker(p.id); err != nil {
			return err
		}
	}
	if err := c.tr.Connect("B1", "B2"); err != nil {
		return err
	}
	if err := c.tr.Connect("B2", "B3"); err != nil {
		return err
	}
	if c.pub, err = c.tr.Open(ctx, "loadpub", "B1"); err != nil {
		return err
	}
	c.sub, err = c.tr.Open(ctx, "loadsub", "B3")
	return err
}

func (c *chain) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = c.tr.Shutdown(ctx) // teardown after measurement; errors change no figure
}

func (c *chain) brokers() []*pubsub.Broker { return []*pubsub.Broker{c.b1, c.b2, c.b3} }

// admitted reports whether every subscription operation the subscriber
// sent has been processed at every hop. Each test reads state under the
// broker's own lock, after the hop before it is known complete:
//
//   - B3's table toward B2 has seen every client subscribe/unsubscribe;
//   - B2 has decided (forwarded or suppressed) every subscription B3
//     forwarded, and removed every one B3 cancelled;
//   - B1's received set from B2 equals what B2 announced.
func (c *chain) admitted() bool {
	t3, ok := c.b3.NeighborTableMetrics("B2")
	if !ok || t3.Subscribes != c.subsSent || t3.Unsubscribes != c.unsubsSent {
		return false
	}
	m3, m2 := c.b3.Metrics(), c.b2.Metrics()
	if m2.SubsForwarded-m2.Promotions+m2.SubsSuppressed != m3.SubsForwarded {
		return false
	}
	t2, ok := c.b2.NeighborTableMetrics("B1")
	if !ok || t2.Unsubscribes != uint64(m3.UnsubsForwarded) {
		return false
	}
	out, ok := c.b2.LinkDigest("B1")
	return ok && out == c.b1.ReceivedDigest("B2")
}

// waitAdmitted polls admitted until it holds.
func (c *chain) waitAdmitted(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for !c.admitted() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("subscriptions not admitted along the chain within %v", limit)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

func (c *chain) subscribe(ctx context.Context, s pubsub.BatchSub) error {
	c.subsSent++
	return c.sub.Subscribe(ctx, s.SubID, s.Sub)
}

func (c *chain) unsubscribe(ctx context.Context, id string) error {
	c.unsubsSent++
	return c.sub.Unsubscribe(ctx, id)
}

// subscribeBatch sends one SUBBATCH from the subscriber.
func (c *chain) subscribeBatch(ctx context.Context, subs []pubsub.BatchSub) error {
	c.subsSent += uint64(len(subs))
	return c.sub.SubscribeBatch(ctx, subs)
}

func (c *chain) unsubscribeBatch(ctx context.Context, ids []string) error {
	c.unsubsSent += uint64(len(ids))
	return c.sub.UnsubscribeBatch(ctx, ids)
}

// totals sums the broker counters.
func (c *chain) totals() broker.Metrics {
	var m broker.Metrics
	for _, b := range c.brokers() {
		m.Add(b.Metrics())
	}
	return m
}

func standingID(i int) string { return "s" + strconv.Itoa(i) }
func churnID(n int) string    { return "c" + strconv.Itoa(n) }
