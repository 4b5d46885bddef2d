// Package match implements publication-to-subscription matching, the
// hot path of a content-based broker. Three matchers are provided:
//
//   - BruteForce: O(k·m) linear scan, the correctness oracle.
//   - CountingIndex: the counting algorithm of Yan & García-Molina
//     (the paper's reference [18], the basis of "all existing
//     deterministic algorithms"): each non-trivial predicate is indexed
//     once; a publication match increments a per-subscription counter
//     and a subscription fires when all its non-trivial predicates hit.
//   - Per-attribute centered interval trees answer the stabbing queries
//     in O(log k + out).
//
// Algorithm 5 of the paper (two-phase matching against uncovered, then
// covered subscriptions) is implemented in package store on top of
// these matchers.
package match

import (
	"slices"

	"probsum/internal/subscription"
)

// ID identifies a subscription within a matcher.
type ID int64

// Matcher finds the subscriptions matching a publication.
type Matcher interface {
	// Match returns the IDs of all subscriptions containing the point,
	// in ascending order.
	Match(p subscription.Publication) []ID
	// Len returns the number of indexed subscriptions.
	Len() int
}

// BruteForce is a dynamic matcher that scans every subscription. The
// zero value is ready to use.
type BruteForce struct {
	ids  []ID
	subs []subscription.Subscription
	pos  map[ID]int
}

var _ Matcher = (*BruteForce)(nil)

// Add indexes a subscription under id, replacing any previous entry.
func (b *BruteForce) Add(id ID, s subscription.Subscription) {
	if b.pos == nil {
		b.pos = make(map[ID]int)
	}
	if i, ok := b.pos[id]; ok {
		b.subs[i] = s
		return
	}
	b.pos[id] = len(b.ids)
	b.ids = append(b.ids, id)
	b.subs = append(b.subs, s)
}

// Remove drops the subscription with the given id, if present.
func (b *BruteForce) Remove(id ID) {
	i, ok := b.pos[id]
	if !ok {
		return
	}
	last := len(b.ids) - 1
	b.ids[i] = b.ids[last]
	b.subs[i] = b.subs[last]
	b.pos[b.ids[i]] = i
	b.ids = b.ids[:last]
	b.subs = b.subs[:last]
	delete(b.pos, id)
}

// Match implements Matcher.
func (b *BruteForce) Match(p subscription.Publication) []ID {
	var out []ID
	for i, s := range b.subs {
		if s.Matches(p) {
			out = append(out, b.ids[i])
		}
	}
	sortIDs(out)
	return out
}

// Len implements Matcher.
func (b *BruteForce) Len() int { return len(b.ids) }

// sortIDs sorts a match result in place.
func sortIDs(ids []ID) { slices.Sort(ids) }
