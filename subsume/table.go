// Table: the maintained coverage table, the paper's payoff operation.
// A broker does not ask one-shot Covered questions — it keeps the set
// of forwarded subscriptions and suppresses arrivals the active set
// already covers. Table packages that machinery (internal/store) as an
// embeddable, concurrency-safe component: hash-sharded stores, a
// cross-shard merge for coverage decisions that span shards, batch
// admission for arrival bursts, and Algorithm 5 matching.
package subsume

import (
	"fmt"

	"probsum/internal/core"
	"probsum/internal/store"
)

// Policy selects how a Table reduces arriving subscriptions.
type Policy int

// Coverage policies.
const (
	// Flood keeps every subscription active (no reduction).
	Flood Policy = iota + 1
	// Pairwise suppresses a subscription only when a single active
	// subscription covers it (classical deterministic systems).
	Pairwise
	// Group suppresses a subscription when the probabilistic checker
	// decides the active set jointly covers it (the paper's
	// contribution).
	Group
)

// String returns the policy name.
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

func (p Policy) toStore() (store.Policy, error) {
	switch p {
	case Flood:
		return store.PolicyNone, nil
	case Pairwise:
		return store.PolicyPairwise, nil
	case Group:
		return store.PolicyGroup, nil
	default:
		return 0, fmt.Errorf("subsume: invalid policy %d", p)
	}
}

// ID identifies a subscription within a Table.
type ID = store.ID

// Status reports where a subscription lives: StatusActive entries
// drive routing and matching; StatusCovered entries are suppressed by
// the active set and stored in the cover forest.
type Status = store.Status

// Status values.
const (
	StatusActive  = store.StatusActive
	StatusCovered = store.StatusCovered
)

// SubscribeResult reports how an arrival was classified; see the
// fields of store.SubscribeResult.
type SubscribeResult = store.SubscribeResult

// UnsubscribeResult reports a removal and any promotions it caused.
type UnsubscribeResult = store.UnsubscribeResult

// UnsubscribeBatchResult reports a batch removal: how many IDs were
// removed and which covered subscriptions the burst promoted.
type UnsubscribeBatchResult = store.UnsubscribeBatchResult

// ShardStats sizes one shard of a Table.
type ShardStats = store.ShardStats

// TableSnapshot is a point-in-time size report, per shard and total.
type TableSnapshot = store.ShardedSnapshot

// TableMetrics are a Table's cumulative operation counters.
type TableMetrics = store.ShardedMetrics

// ErrDuplicateID is returned when subscribing an ID already in use.
var ErrDuplicateID = store.ErrDuplicateID

// TableOption configures a Table.
type TableOption func(*tableConfig)

type tableConfig struct {
	shards     int
	seed       uint64
	copts      []core.Option
	schema     *Schema
	router     Router
	rendezvous bool
}

// Router maps a subscription to a shard-selection hash — under the
// default placement the shard is the hash modulo the shard count;
// under WithRendezvousPlacement it is the rendezvous placement key.
// See WithShardRouter.
type Router = store.Router

// WithShards sets the shard count (default 1). A single shard keeps
// the exact semantics of one sequential coverage table; more shards
// add concurrency at a documented cost: group coverage weakens to
// PER-SHARD unions, so a set of subscriptions spread across shards is
// never considered jointly and a sharded table may keep subscriptions
// active that a one-shard table would suppress. The weakening is sound
// (it errs toward forwarding, never toward losing publications).
func WithShards(n int) TableOption {
	return func(c *tableConfig) { c.shards = n }
}

// WithTableSeed seeds the checker pool per-shard checkers are drawn
// from under Group (default 1). With one shard the checker is built
// directly from the WithTableChecker options instead, so an explicit
// WithSeed there is honored exactly.
func WithTableSeed(seed uint64) TableOption {
	return func(c *tableConfig) { c.seed = seed }
}

// WithTableChecker appends checker options (WithErrorProbability,
// WithMaxTrials, …) applied to every per-shard checker under Group.
func WithTableChecker(opts ...Option) TableOption {
	return func(c *tableConfig) { c.copts = append(c.copts, opts...) }
}

// WithTableSchema makes shard routing schema-aware: the dominant
// (most selective) bound is judged relative to its domain, so boxes
// concentrated in the same region of the same attribute tend to share
// a shard and coverage relations stay intra-shard.
func WithTableSchema(schema *Schema) TableOption {
	return func(c *tableConfig) { c.schema = schema }
}

// WithShardRouter replaces the shard-placement hash entirely with a
// custom function. Routing is a placement heuristic only; correctness
// never depends on it.
func WithShardRouter(r Router) TableOption {
	return func(c *tableConfig) { c.router = r }
}

// WithRendezvousPlacement switches the table to balance-first shard
// placement: subscriptions carry a fine-grained dominant-bound key
// (or the WithShardRouter value), every shard ranks the key by salted
// rendezvous hash, and activation takes the less-occupied of the two
// top-ranked shards. Use it when the default locality-first router
// clumps a skewed workload into one shard — covered subscriptions
// always live with their coverer, so a broad subscription drags its
// covered population into its own shard and only load-aware placement
// spreads those piles (measure with TableMetrics.ShardOccupancy). The
// tradeoff is weaker placement locality: coverage leans more on the
// (sound) cross-shard admission scan.
func WithRendezvousPlacement() TableOption {
	return func(c *tableConfig) { c.rendezvous = true }
}

// Table is a maintained coverage table, safe for concurrent callers.
// Subscriptions are admitted covered when the active set (per shard)
// already covers them and active otherwise; Match answers publication
// routing across the whole table. Concurrency races always resolve
// toward keeping subscriptions active — the direction that forwards
// more and never loses publications.
type Table struct {
	sh     *store.Sharded
	policy Policy
}

// NewTable builds a coverage table under the given policy.
func NewTable(policy Policy, opts ...TableOption) (*Table, error) {
	sp, err := policy.toStore()
	if err != nil {
		return nil, err
	}
	cfg := tableConfig{shards: 1, seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	sopts := []store.ShardedOption{
		store.WithShards(cfg.shards),
		store.WithShardSeed(cfg.seed),
	}
	if len(cfg.copts) > 0 {
		sopts = append(sopts, store.WithShardCheckerOptions(cfg.copts...))
	}
	if cfg.schema != nil {
		sopts = append(sopts, store.WithShardSchema(cfg.schema))
	}
	if cfg.router != nil {
		sopts = append(sopts, store.WithShardRouter(cfg.router))
	}
	if cfg.rendezvous {
		sopts = append(sopts, store.WithShardRendezvous(true))
	}
	sh, err := store.NewSharded(sp, sopts...)
	if err != nil {
		return nil, err
	}
	return &Table{sh: sh, policy: policy}, nil
}

// Policy returns the table's coverage policy.
func (t *Table) Policy() Policy { return t.policy }

// Shards returns the shard count.
func (t *Table) Shards() int { return t.sh.ShardCount() }

// Subscribe admits one subscription under a caller-chosen unique ID.
func (t *Table) Subscribe(id ID, s Subscription) (SubscribeResult, error) {
	return t.sh.Subscribe(id, s)
}

// SubscribeBatch admits an arrival burst in one call. The burst is
// processed in descending box-volume order inside a single critical
// section, so within-burst coverage is found immediately and broad
// subscriptions suppress the narrow ones arriving alongside them;
// results are returned in input order. On burst workloads this is
// substantially faster than per-item Subscribe (see
// BenchmarkTableSubscribeBatch).
func (t *Table) SubscribeBatch(ids []ID, subs []Subscription) ([]SubscribeResult, error) {
	return t.sh.SubscribeBatch(ids, subs)
}

// Unsubscribe removes id, promoting covered subscriptions whose cover
// no longer holds (and, across shards, re-covering promoted ones into
// shards that still cover them). Removing an unknown ID is a no-op.
func (t *Table) Unsubscribe(id ID) (UnsubscribeResult, error) {
	return t.sh.Unsubscribe(id)
}

// UnsubscribeBatch removes a cancellation burst in one call, sharing a
// single promotion-cascade frontier: each surviving subscription that
// lost coverers to the burst is re-validated exactly once against the
// post-removal active set, instead of once per removed coverer as a
// per-item loop would (see BenchmarkTableUnsubscribeBatch). Unknown
// IDs are skipped; Promoted lists the subscriptions left active, in
// ID order.
func (t *Table) UnsubscribeBatch(ids []ID) (UnsubscribeBatchResult, error) {
	return t.sh.UnsubscribeBatch(ids)
}

// Match returns the sorted IDs of every stored subscription matching
// p — active and covered, via the paper's Algorithm 5 descent.
func (t *Table) Match(p Publication) []ID { return t.sh.Match(p) }

// Get returns the subscription and status for id.
func (t *Table) Get(id ID) (Subscription, Status, bool) { return t.sh.Get(id) }

// ActiveIDs returns the sorted IDs of the active set across shards.
func (t *Table) ActiveIDs() []ID { return t.sh.ActiveIDs() }

// Len returns the total number of stored subscriptions.
func (t *Table) Len() int { return t.Snapshot().Len }

// ActiveLen returns the active-set size across shards.
func (t *Table) ActiveLen() int { return t.Snapshot().Active }

// CoveredLen returns the covered-set size across shards.
func (t *Table) CoveredLen() int { return t.Snapshot().Covered }

// Snapshot reports current sizes, per shard and total.
func (t *Table) Snapshot() TableSnapshot { return t.sh.Snapshot() }

// Metrics reports cumulative operation counters.
func (t *Table) Metrics() TableMetrics { return t.sh.Metrics() }
