// Package pubsub is the public API for running content-based
// publish/subscribe broker overlays with coverage-based subscription
// reduction — the distributed side of the Middleware 2006 paper this
// library reproduces.
//
// Brokers form an overlay; clients attach to brokers, subscribe with
// boxes (see package subsume), and publish points. Subscriptions
// flood the overlay along reverse paths; depending on the coverage
// Policy, a broker suppresses forwarding a subscription to a neighbor
// when the subscriptions already sent to that neighbor cover it —
// pairwise (classical, exact) or group coverage (the paper's
// probabilistic algorithm, which suppresses strictly more traffic at
// a bounded risk of losing publications).
//
// The package offers the same protocol over two transports behind one
// surface (see Transport, Broker, Client):
//
//   - NewSimTransport hosts the overlay on the deterministic
//     in-process simulator — the evaluation and testing regime.
//   - NewTCPTransport hosts it on real sockets with concurrent
//     message handling; ListenBroker and Dial are the cross-process
//     forms used by cmd/brokerd and cmd/psclient.
package pubsub

import (
	"fmt"
	"strings"

	"probsum/internal/broker"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/subsume"
)

// Policy selects subscription-forwarding reduction.
type Policy int

// Coverage policies.
const (
	// Flood forwards every subscription (no reduction).
	Flood Policy = iota + 1
	// Pairwise suppresses subscriptions covered by a single
	// previously forwarded subscription (exact, classical).
	Pairwise
	// Group suppresses subscriptions covered by the union of
	// previously forwarded subscriptions, decided probabilistically.
	Group
)

func (p Policy) String() string {
	switch p {
	case Flood:
		return "flood"
	case Pairwise:
		return "pairwise"
	case Group:
		return "group"
	default:
		return "unknown"
	}
}

// ParsePolicy parses a policy name as accepted by the CLI tools:
// "flood" (or "none"), "pairwise", and "group". It is the single
// string→Policy conversion shared by cmd/brokerd, cmd/psclient,
// examples and any embedding program.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "flood", "none":
		return Flood, nil
	case "pairwise":
		return Pairwise, nil
	case "group":
		return Group, nil
	default:
		return 0, fmt.Errorf("pubsub: unknown policy %q (want flood | pairwise | group)", s)
	}
}

func (p Policy) toStore() (store.Policy, error) {
	switch p {
	case Flood:
		return store.PolicyNone, nil
	case Pairwise:
		return store.PolicyPairwise, nil
	case Group:
		return store.PolicyGroup, nil
	default:
		return 0, fmt.Errorf("pubsub: invalid policy %d", p)
	}
}

// Subscription and Publication are the content types (see package
// subsume for builders).
type (
	Subscription = subscription.Subscription
	Publication  = subscription.Publication
)

// BatchSub pairs a subscription with its globally unique ID inside a
// Client.SubscribeBatch burst.
type BatchSub = broker.BatchSub

// BatchPub pairs a publication with its globally unique ID inside a
// Client.PublishBatch burst.
type BatchPub = broker.BatchPub

// Notification is a delivered publication together with the matched
// subscription ID.
type Notification struct {
	SubID string
	PubID string
	Pub   Publication
}

// Metrics aggregates broker activity counters.
type Metrics = broker.Metrics

// Config tunes the probabilistic checker used under the Group policy
// and optional link-failure injection.
type Config struct {
	// ErrorProbability is the per-decision false-cover bound δ
	// (default 1e-6).
	ErrorProbability float64
	// MaxTrials caps Monte-Carlo guesses per decision (default 100000).
	MaxTrials int
	// Seed makes all broker decisions reproducible (default 1).
	Seed uint64
	// DropRate and DupRate inject per-message loss and duplication on
	// broker-to-broker links (default 0), modeling the lossy sensor
	// and MANET environments the paper targets.
	DropRate, DupRate float64
}

func (c Config) withDefaults() Config {
	if c.ErrorProbability == 0 {
		c.ErrorProbability = 1e-6
	}
	if c.MaxTrials == 0 {
		c.MaxTrials = 100_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TableOptions converts the network tuning into subsume.Table options
// — the exact options AddBroker applies to every per-neighbor coverage
// table (per-neighbor checker seeding is layered on top by the broker;
// Config.Seed feeds that derivation, not an option here). Exported so
// a standalone subsume.Table can share a network's tuning.
func (c Config) TableOptions() []subsume.TableOption {
	c = c.withDefaults()
	return []subsume.TableOption{
		subsume.WithTableChecker(
			subsume.WithErrorProbability(c.ErrorProbability),
			subsume.WithMaxTrials(c.MaxTrials),
		),
	}
}
