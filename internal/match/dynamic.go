package match

import (
	"slices"
	"sync"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// ITreeIndex is a dynamic matcher over the per-attribute centered
// interval trees: Add and Remove mark the index dirty, and the next
// Match rebuilds the trees lazily, so maintenance is O(1) per change
// and the O(k log k) rebuild is amortized over the publications
// between changes — the broker regime, where publications far
// outnumber subscription churn.
//
// Matching is selective rather than counting: a publication stabs the
// tree of ONE attribute — the one whose predicates contain the value
// least often — and checks each candidate against every attribute.
// Every subscription constrains every attribute, so each match is
// among that attribute's hits, and the answer is exact. How many
// predicates contain v is known before any stab: with the attribute's
// predicate bounds kept sorted, it is #(Lo ≤ v) − #(Hi < v), two
// binary searches. The cost per publication is O(m·log k) to pick the
// attribute plus O(m) per candidate, instead of touching every hit on
// every attribute.
//
// The index needs no schema, yet it keeps the counting algorithm's
// trivial-predicate optimization by inferring a pseudo-domain: per
// attribute, the HULL of the indexed predicates. A predicate spanning
// the whole hull contains every point any predicate on that attribute
// can accept, so it stays out of the tree and is listed once per
// attribute instead; a value inside the hull lies in all of them, and
// a value outside the hull is outside every predicate on that
// attribute (all are within the hull), so the whole bucket misses. On
// realistic workloads most predicates are the unconstrained full
// domain, which the hull test recovers without being told the domain.
//
// Subscriptions are bucketed by attribute count, so sets fed from
// mixed schemas stay matchable: a publication consults only the
// bucket with its own attribute count, mirroring Subscription.Matches
// (which rejects on length mismatch).
//
// All methods are safe for concurrent use. Match and MatchAny run in
// parallel with each other: a bucket is immutable after its rebuild
// and a match keeps no scratch state, so concurrent stabs share
// nothing mutable. Add and Remove only mark the index dirty under the
// write lock; the rebuild itself happens inside whichever Match
// observes the dirty flag first, with later readers either waiting on
// the lock or stabbing the previous (still-valid) generation they
// already hold.
type ITreeIndex struct {
	mu      sync.RWMutex
	subs    map[ID]subscription.Subscription
	dirty   bool
	buckets map[int]*itreeBucket
}

// itreeBucket matches subscriptions of one attribute count m. It is
// immutable once the rebuild that created it returns.
type itreeBucket struct {
	ids    []ID
	hulls  []interval.Interval // per-attribute hull of all predicates
	trees  []*itreeNode        // per attribute: predicates not spanning the hull
	los    [][]int64           // per attribute: the tree's Lo bounds, sorted
	his    [][]int64           // per attribute: the tree's Hi bounds, sorted
	spans  [][]int             // per attribute: positions spanning the hull
	bounds []interval.Interval // bounds[pos*m+a]: position pos's predicate on a
}

var _ Matcher = (*ITreeIndex)(nil)

// NewITreeIndex returns an empty dynamic matcher.
func NewITreeIndex() *ITreeIndex {
	return &ITreeIndex{subs: make(map[ID]subscription.Subscription)}
}

// Add indexes a subscription under id, replacing any previous entry.
func (x *ITreeIndex) Add(id ID, s subscription.Subscription) {
	x.mu.Lock()
	x.subs[id] = s
	x.dirty = true
	x.mu.Unlock()
}

// Remove drops the subscription with the given id, if present.
func (x *ITreeIndex) Remove(id ID) {
	x.mu.Lock()
	if _, ok := x.subs[id]; ok {
		delete(x.subs, id)
		x.dirty = true
	}
	x.mu.Unlock()
}

// Len implements Matcher.
func (x *ITreeIndex) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.subs)
}

// rebuild reconstructs the per-bucket trees from the current set.
// Caller holds the write lock.
func (x *ITreeIndex) rebuild() {
	x.buckets = make(map[int]*itreeBucket)
	// Deterministic tree shape: insert in ascending ID order.
	ids := make([]ID, 0, len(x.subs))
	for id := range x.subs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		s := x.subs[id]
		if !s.IsSatisfiable() {
			continue // an empty bound matches nothing: keep it out of
			// the trees (buildITree requires non-empty intervals)
		}
		m := s.Len()
		bkt := x.buckets[m]
		if bkt == nil {
			bkt = &itreeBucket{}
			x.buckets[m] = bkt
		}
		bkt.ids = append(bkt.ids, id)
	}
	for m, bkt := range x.buckets {
		bkt.hulls = make([]interval.Interval, m)
		bkt.bounds = make([]interval.Interval, 0, m*len(bkt.ids))
		for i, id := range bkt.ids {
			for a, b := range x.subs[id].Bounds {
				if i == 0 {
					bkt.hulls[a] = b
				} else {
					bkt.hulls[a] = bkt.hulls[a].Hull(b)
				}
			}
			bkt.bounds = append(bkt.bounds, x.subs[id].Bounds...)
		}
		perAttr := make([][]entry, m)
		bkt.spans = make([][]int, m)
		for pos := range bkt.ids {
			for a, b := range bkt.bounds[pos*m : pos*m+m] {
				if b.ContainsInterval(bkt.hulls[a]) {
					bkt.spans[a] = append(bkt.spans[a], pos)
					continue
				}
				perAttr[a] = append(perAttr[a], entry{iv: b, sub: pos})
			}
		}
		bkt.trees = make([]*itreeNode, m)
		bkt.los = make([][]int64, m)
		bkt.his = make([][]int64, m)
		for a, es := range perAttr {
			byLo, byHi := sortedEntries(es)
			los, his := make([]int64, len(es)), make([]int64, len(es))
			for i := range es {
				los[i], his[len(es)-1-i] = byLo[i].iv.Lo, byHi[i].iv.Hi
			}
			bkt.los[a], bkt.his[a] = los, his
			bkt.trees[a] = buildSorted(byLo, byHi)
		}
	}
	x.dirty = false
}

// bucketFor rebuilds if dirty and returns the bucket for p's arity —
// nil when no bucket exists or p falls outside a per-attribute hull
// (outside the hull means outside every predicate on that attribute,
// and every subscription carries one). The returned bucket is safe to
// stab after the lock is released: its structure never mutates, only
// its generation gets superseded.
func (x *ITreeIndex) bucketFor(p subscription.Publication) *itreeBucket {
	x.mu.RLock()
	if x.dirty || x.buckets == nil {
		x.mu.RUnlock()
		x.mu.Lock()
		if x.dirty || x.buckets == nil {
			x.rebuild()
		}
		x.mu.Unlock()
		x.mu.RLock()
	}
	bkt := x.buckets[len(p.Values)]
	x.mu.RUnlock()
	if bkt == nil {
		return nil
	}
	for a, hull := range bkt.hulls {
		if !hull.Contains(p.Values[a]) {
			return nil
		}
	}
	return bkt
}

// countLE returns how many of the sorted xs are at most v.
func countLE(xs []int64, v int64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// pick returns the attribute whose predicates contain p least often,
// with that count — an upper bound on the matches. p must lie inside
// every hull, so each hull-spanning predicate contains it; among the
// indexed ones, those containing v are the #(Lo ≤ v) whose Hi is not
// below v, and every Hi < v belongs to one with Lo ≤ v. A zero-arity
// bucket has no attribute to pick (best < 0): all of it matches.
func (bkt *itreeBucket) pick(p subscription.Publication) (best, n int) {
	best, n = -1, len(bkt.ids)
	for a, v := range p.Values {
		below, _ := slices.BinarySearch(bkt.his[a], v) // #(Hi < v)
		c := countLE(bkt.los[a], v) - below + len(bkt.spans[a])
		if c < n || best < 0 {
			best, n = a, c
			if c == 0 {
				break
			}
		}
	}
	return best, n
}

// completions invokes emit for every position matching p, given the
// attribute best chosen by pick: the candidates are that attribute's
// stab hits and hull-spanning positions, each checked on every
// attribute. emit returning false stops the scan.
func (bkt *itreeBucket) completions(p subscription.Publication, best int, emit func(pos int) bool) {
	if best < 0 {
		for pos := range bkt.ids {
			if !emit(pos) {
				return
			}
		}
		return
	}
	m := len(p.Values)
	check := func(pos int) bool {
		for a, b := range bkt.bounds[pos*m : pos*m+m] {
			if !b.Contains(p.Values[a]) {
				return true
			}
		}
		return emit(pos)
	}
	if !bkt.trees[best].each(p.Values[best], check) {
		return
	}
	for _, pos := range bkt.spans[best] {
		if !check(pos) {
			return
		}
	}
}

// Match implements Matcher in O(m·log k + m·c) per publication after
// an amortized rebuild, where c is the hit count of the least-hit
// attribute. Safe for concurrent callers.
func (x *ITreeIndex) Match(p subscription.Publication) []ID {
	bkt := x.bucketFor(p)
	if bkt == nil {
		return nil
	}
	best, n := bkt.pick(p)
	if n == 0 {
		return nil
	}
	// Collect on the stack: the candidate count n is often hundreds
	// while the matches are a handful, so up to 32 matches the result
	// is allocated once, at its final size.
	var stack [32]ID
	out := stack[:0]
	bkt.completions(p, best, func(pos int) bool {
		out = append(out, bkt.ids[pos])
		return true
	})
	if len(out) == 0 {
		return nil
	}
	sortIDs(out)
	return slices.Clone(out)
}

// MatchAny reports whether any indexed subscription matches p,
// returning as soon as one is found — the existence form the broker
// uses for reverse-path forwarding, where the member list is unused.
// Safe for concurrent callers.
func (x *ITreeIndex) MatchAny(p subscription.Publication) bool {
	bkt := x.bucketFor(p)
	if bkt == nil {
		return false
	}
	best, n := bkt.pick(p)
	if n == 0 {
		return false
	}
	found := false
	bkt.completions(p, best, func(int) bool {
		found = true
		return false
	})
	return found
}
