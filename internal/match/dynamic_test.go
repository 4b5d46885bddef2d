package match

import (
	"math/rand/v2"
	"slices"
	"testing"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// TestITreeIndexCrossCheck churns a dynamic interval-tree index and
// cross-checks every Match against both the brute-force scan and a
// CountingIndex rebuilt from the same snapshot (the counting algorithm
// is the paper's deterministic reference [18]).
func TestITreeIndexCrossCheck(t *testing.T) {
	const m = 3
	rng := rand.New(rand.NewPCG(3, 4))
	schema := subscription.UniformSchema(m, 0, 999)
	randomSub := func() subscription.Subscription {
		bounds := make([]interval.Interval, m)
		for a := range bounds {
			lo := rng.Int64N(900)
			bounds[a] = interval.New(lo, lo+rng.Int64N(1000-lo))
		}
		return subscription.Subscription{Bounds: bounds}
	}

	idx := NewITreeIndex()
	var bf BruteForce
	live := map[ID]subscription.Subscription{}
	next := ID(0)
	for step := 0; step < 60; step++ {
		// Mutate: a few adds, sometimes a removal or replacement.
		for i := 0; i < 1+rng.IntN(20); i++ {
			next++
			s := randomSub()
			idx.Add(next, s)
			bf.Add(next, s)
			live[next] = s
		}
		if len(live) > 0 && rng.IntN(2) == 0 {
			for id := range live {
				idx.Remove(id)
				bf.Remove(id)
				delete(live, id)
				break
			}
		}
		if len(live) > 0 && rng.IntN(3) == 0 {
			for id := range live {
				s := randomSub()
				idx.Add(id, s) // replacement
				bf.Add(id, s)
				live[id] = s
				break
			}
		}
		if idx.Len() != len(live) {
			t.Fatalf("step %d: Len = %d, want %d", step, idx.Len(), len(live))
		}

		ids := make([]ID, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		subs := make([]subscription.Subscription, len(ids))
		for i, id := range ids {
			subs[i] = live[id]
		}
		counting, err := NewCountingIndex(schema, ids, subs)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 20; probe++ {
			vals := make([]int64, m)
			for a := range vals {
				vals[a] = rng.Int64N(1000)
			}
			p := subscription.Publication{Values: vals}
			got := idx.Match(p)
			if want := bf.Match(p); !slices.Equal(got, want) {
				t.Fatalf("step %d: itree %v, brute force %v", step, got, want)
			}
			if want := counting.Match(p); !slices.Equal(got, want) {
				t.Fatalf("step %d: itree %v, counting %v", step, got, want)
			}
		}
	}
}

// TestITreeIndexMixedSchemas pins the bucketing: subscriptions with
// different attribute counts coexist, and a publication consults only
// its own arity — the same contract as Subscription.Matches.
func TestITreeIndexMixedSchemas(t *testing.T) {
	idx := NewITreeIndex()
	idx.Add(1, subscription.New(interval.New(0, 10)))
	idx.Add(2, subscription.New(interval.New(0, 10), interval.New(0, 10)))
	idx.Add(3, subscription.New(interval.New(5, 20)))

	if got := idx.Match(subscription.NewPublication(7)); !slices.Equal(got, []ID{1, 3}) {
		t.Fatalf("1-D match = %v, want [1 3]", got)
	}
	if got := idx.Match(subscription.NewPublication(7, 7)); !slices.Equal(got, []ID{2}) {
		t.Fatalf("2-D match = %v, want [2]", got)
	}
	if got := idx.Match(subscription.NewPublication(7, 7, 7)); got != nil {
		t.Fatalf("3-D match = %v, want nil", got)
	}
	idx.Remove(1)
	idx.Remove(99) // absent: no-op
	if got := idx.Match(subscription.NewPublication(7)); !slices.Equal(got, []ID{3}) {
		t.Fatalf("after remove = %v, want [3]", got)
	}
}

// TestITreeIndexEmptyBounds guards the buildITree precondition: a
// subscription with an empty bound (lo > hi) must be tolerated — it
// matches nothing — not recurse the tree builder to death. The broker
// feeds this index unvalidated wire input, so this is a hostile-input
// test, covering CountingIndex the same way.
func TestITreeIndexEmptyBounds(t *testing.T) {
	idx := NewITreeIndex()
	idx.Add(1, subscription.New(interval.New(0, 100)))
	idx.Add(2, subscription.New(interval.Empty())) // lo > hi
	if got := idx.Match(subscription.NewPublication(7)); !slices.Equal(got, []ID{1}) {
		t.Fatalf("Match = %v, want [1]", got)
	}
	if !idx.MatchAny(subscription.NewPublication(7)) {
		t.Fatal("MatchAny missed the satisfiable subscription")
	}
	if idx.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (stored, even if unmatchable)", idx.Len())
	}

	schema := subscription.UniformSchema(1, 0, 100)
	counting, err := NewCountingIndex(schema,
		[]ID{1, 2},
		[]subscription.Subscription{
			subscription.New(interval.New(0, 100)),
			subscription.New(interval.Empty()),
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := counting.Match(subscription.NewPublication(7)); !slices.Equal(got, []ID{1}) {
		t.Fatalf("counting Match = %v, want [1]", got)
	}
}

// TestITreeIndexMatchAny cross-checks the existence query against the
// full Match over random churn.
func TestITreeIndexMatchAny(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	idx := NewITreeIndex()
	for i := 0; i < 200; i++ {
		lo := rng.Int64N(900)
		idx.Add(ID(i), subscription.New(
			interval.New(lo, lo+rng.Int64N(60)),
			interval.New(0, 999), // hull-spanning on the second attribute
		))
	}
	for probe := 0; probe < 300; probe++ {
		p := subscription.NewPublication(rng.Int64N(1000), rng.Int64N(1000))
		if got, want := idx.MatchAny(p), len(idx.Match(p)) > 0; got != want {
			t.Fatalf("MatchAny(%v) = %v, Match says %v", p, got, want)
		}
	}
}

// nestedPopulation builds m-attribute subscriptions over [0, 999]:
// broad parents and narrow children nested inside them, with some
// predicates the full domain (so they span the hull) and one
// subscription the full domain on every attribute.
func nestedPopulation(rng *rand.Rand, m, parents, children int) []subscription.Subscription {
	full := interval.New(0, 999)
	out := make([]subscription.Subscription, 0, parents+children+1)
	for i := 0; i < parents; i++ {
		bounds := make([]interval.Interval, m)
		for a := range bounds {
			if rng.IntN(5) == 0 {
				bounds[a] = full
				continue
			}
			lo := rng.Int64N(600)
			bounds[a] = interval.New(lo, lo+300+rng.Int64N(100))
		}
		out = append(out, subscription.Subscription{Bounds: bounds})
	}
	for i := 0; i < children; i++ {
		p := out[rng.IntN(parents)]
		bounds := make([]interval.Interval, m)
		for a, b := range p.Bounds {
			if b == full && rng.IntN(2) == 0 {
				bounds[a] = full
				continue
			}
			w := (b.Hi - b.Lo) / 4
			off := rng.Int64N(b.Hi - b.Lo - w)
			bounds[a] = interval.New(b.Lo+off, b.Lo+off+w)
		}
		out = append(out, subscription.Subscription{Bounds: bounds})
	}
	all := make([]interval.Interval, m)
	for a := range all {
		all[a] = full
	}
	return append(out, subscription.Subscription{Bounds: all})
}

// probePoints draws publications of arity m aimed at the index's edge
// cases: uniform points, points inside a random subscription, and
// points whose every value is an interval endpoint, one past it, or a
// hull edge (0 and 999) or one past that.
func probePoints(rng *rand.Rand, subs []subscription.Subscription, m, n int) []subscription.Publication {
	out := make([]subscription.Publication, 0, n)
	for i := 0; i < n; i++ {
		vals := make([]int64, m)
		s := subs[rng.IntN(len(subs))]
		for a := range vals {
			switch i % 3 {
			case 0:
				vals[a] = rng.Int64N(1000)
			case 1:
				b := s.Bounds[a]
				vals[a] = b.Lo + rng.Int64N(b.Hi-b.Lo+1)
			default:
				b := subs[rng.IntN(len(subs))].Bounds[a]
				vals[a] = []int64{b.Lo, b.Hi, b.Lo - 1, b.Hi + 1, 0, 999, -1, 1000}[rng.IntN(8)]
			}
		}
		out = append(out, subscription.Publication{Values: vals})
	}
	return out
}

// TestITreeIndexSelectiveCrossCheck cross-checks Match and MatchAny
// against the brute-force scan and CountingIndex on nested parents and
// children of mixed arities, with hull-spanning predicates, probes on
// interval endpoints and hull edges, and counts how often the picked
// attribute had hull-spanning candidates so that path is known to run.
func TestITreeIndexSelectiveCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 15))
	idx := NewITreeIndex()
	var bf BruteForce
	next := ID(0)
	pops := map[int][]subscription.Subscription{}
	counting := map[int]*CountingIndex{}
	for _, m := range []int{6, 3, 1} {
		subs := nestedPopulation(rng, m, 40, 400)
		ids := make([]ID, len(subs))
		for i, s := range subs {
			next++
			ids[i] = next
			idx.Add(next, s)
			bf.Add(next, s)
		}
		c, err := NewCountingIndex(subscription.UniformSchema(m, 0, 999), ids, subs)
		if err != nil {
			t.Fatal(err)
		}
		pops[m], counting[m] = subs, c
	}
	spanPicks := 0
	for _, m := range []int{6, 3, 1} {
		for _, p := range probePoints(rng, pops[m], m, 3000) {
			got := idx.Match(p)
			if want := bf.Match(p); !slices.Equal(got, want) {
				t.Fatalf("%v: itree %v, brute force %v", p, got, want)
			}
			// CountingIndex assumes values inside the schema's domain:
			// it counts full-domain predicates as always satisfied.
			if inDomain(p) {
				if want := counting[m].Match(p); !slices.Equal(got, want) {
					t.Fatalf("%v: itree %v, counting %v", p, got, want)
				}
			}
			if any := idx.MatchAny(p); any != (len(got) > 0) {
				t.Fatalf("%v: MatchAny = %v, Match = %v", p, any, got)
			}
			if bkt := idx.bucketFor(p); bkt != nil {
				if best, n := bkt.pick(p); n > 0 && len(bkt.spans[best]) > 0 {
					spanPicks++
				}
			}
		}
	}
	if spanPicks == 0 {
		t.Fatal("no probe picked an attribute with hull-spanning candidates")
	}
	// An arity without a bucket matches nothing.
	if got := idx.Match(subscription.NewPublication(1, 2)); got != nil {
		t.Fatalf("2-D match = %v, want nil", got)
	}
}

func inDomain(p subscription.Publication) bool {
	for _, v := range p.Values {
		if v < 0 || v > 999 {
			return false
		}
	}
	return true
}

// TestITreeIndexLeastHitSpanning pins a publication whose least-hit
// attribute has only hull-spanning predicates containing it: the
// match must come from the spanning list, not the tree.
func TestITreeIndexLeastHitSpanning(t *testing.T) {
	idx := NewITreeIndex()
	idx.Add(1, subscription.New(interval.New(0, 100), interval.New(0, 100))) // spans x1's hull
	idx.Add(2, subscription.New(interval.New(50, 60), interval.New(0, 100)))
	idx.Add(3, subscription.New(interval.New(70, 80), interval.New(0, 100)))
	idx.Add(4, subscription.New(interval.New(0, 100), interval.New(200, 300))) // widens x2's hull

	p := subscription.NewPublication(10, 40)
	bkt := idx.bucketFor(p)
	if bkt == nil {
		t.Fatal("no bucket for an in-hull publication")
	}
	best, n := bkt.pick(p)
	if best != 0 || n != 2 || len(bkt.spans[0]) != 2 {
		t.Fatalf("pick = (%d, %d) with spans %v, want attribute 0 with its 2 spanning predicates", best, n, bkt.spans[0])
	}
	if got := idx.Match(p); !slices.Equal(got, []ID{1}) {
		t.Fatalf("Match = %v, want [1]", got)
	}
	if !idx.MatchAny(p) {
		t.Fatal("MatchAny missed subscription 1")
	}
	// On the hull edges themselves.
	if got := idx.Match(subscription.NewPublication(100, 300)); !slices.Equal(got, []ID{4}) {
		t.Fatalf("Match on hull edge = %v, want [4]", got)
	}
	if got := idx.Match(subscription.NewPublication(101, 0)); got != nil {
		t.Fatalf("Match past the hull = %v, want nil", got)
	}
}

// TestITreeIndexMatchAllocs pins the publish-path allocations: none
// for MatchAny, and only the result slice for Match.
func TestITreeIndexMatchAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 17))
	subs := nestedPopulation(rng, 6, 64, 960)
	idx := NewITreeIndex()
	for i, s := range subs {
		idx.Add(ID(i), s)
	}
	hit := subscription.NewPublication(500, 500, 500, 500, 500, 500)
	if len(idx.Match(hit)) == 0 { // also runs the lazy rebuild
		t.Fatal("probe matches nothing")
	}
	if n := testing.AllocsPerRun(200, func() { idx.MatchAny(hit) }); n != 0 {
		t.Fatalf("MatchAny allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { idx.Match(hit) }); n != 1 {
		t.Fatalf("Match allocates %v per call, want 1 (the result)", n)
	}
}

// standingShape is the standing population of the repository
// benchmark: n subscriptions over six attributes in [0, 9999], n/16
// broad parents and, for each, narrow children a quarter of its width
// on every attribute, in shuffled order, with the parents also
// returned on their own. Publications are 80% points inside a random subscription and 20% in
// an x1 region nothing subscribes to.
func standingShape(n, pubs int) (subs, parents []subscription.Subscription, ps []subscription.Publication) {
	const m = 6
	rng := rand.New(rand.NewPCG(401, 0x70657266))
	parents = make([]subscription.Subscription, n/16)
	for i := range parents {
		bounds := make([]interval.Interval, m)
		for a := range bounds {
			lo := rng.Int64N(6000)
			bounds[a] = interval.New(lo, lo+2000+rng.Int64N(1500))
		}
		parents[i] = subscription.Subscription{Bounds: bounds}
	}
	subs = append(subs, parents...)
	for len(subs) < n {
		p := parents[rng.IntN(len(parents))]
		bounds := make([]interval.Interval, m)
		for a, b := range p.Bounds {
			w := (b.Hi - b.Lo) / 4
			off := rng.Int64N(b.Hi - b.Lo - w)
			bounds[a] = interval.New(b.Lo+off, b.Lo+off+w)
		}
		subs = append(subs, subscription.Subscription{Bounds: bounds})
	}
	rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	for i := 0; i < pubs; i++ {
		vals := make([]int64, m)
		if i%5 == 4 {
			vals[0] = 20000 + rng.Int64N(10000)
			for a := 1; a < m; a++ {
				vals[a] = rng.Int64N(10000)
			}
		} else {
			s := subs[rng.IntN(len(subs))]
			for a, b := range s.Bounds {
				vals[a] = b.Lo + rng.Int64N(b.Hi-b.Lo+1)
			}
		}
		ps = append(ps, subscription.Publication{Values: vals})
	}
	return subs, parents, ps
}

// BenchmarkITreeIndexMatch measures the broker's two per-port queries
// on the repository benchmark's standing shape: Match on the client
// port holding all 4,096 subscriptions, and MatchAny on a peer port
// holding the 256 parents that coverage leaves uncovered.
func BenchmarkITreeIndexMatch(b *testing.B) {
	subs, parents, pubs := standingShape(4096, 1024)
	full, roots := NewITreeIndex(), NewITreeIndex()
	for i, s := range subs {
		full.Add(ID(i), s)
	}
	for i, s := range parents {
		roots.Add(ID(i), s)
	}
	full.Match(pubs[0]) // build both indexes before timing
	roots.MatchAny(pubs[0])
	b.Run("match-4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			full.Match(pubs[i%len(pubs)])
		}
	})
	b.Run("any-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			roots.MatchAny(pubs[i%len(pubs)])
		}
	})
}
