package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"

	"probsum/internal/interval"
	"probsum/internal/subscription"
	"probsum/internal/workload"
)

// Attribute layout. Every attribute spans [0, 9999] except x1, which is
// split into three disjoint regions so the populations never interact:
// the standing population lives in x1 ∈ [0, 9999], the churn stream in
// [10000, 19999], and publications meant to match nothing in
// [20000, 29999].
const (
	attrs       = 6
	domainHi    = 9999
	churnShift  = 10000
	missLo      = 20000
	missHi      = 29999
	churnGapNC  = 0.05 // NonCover gap, as a fraction of s's x1 extent
	churnGapENC = 0.02 // ExtremeNonCover gap
)

// scale sizes one run's inputs and load.
type scale struct {
	Standing  int     // standing subscriptions preloaded at B3
	Pool      int     // distinct publication contents
	MissShare float64 // share of publications that match nothing
	ChurnK    int     // existing-set size of each churn instance
	Instances int     // pre-generated churn instances (the stream wraps)
	Window    int     // sub-churn live window (a multiple of ChurnK+1)

	SteadyRate  float64 // pub-steady open-loop publications/s
	MixedRate   float64 // mixed open-loop publications/s
	MixedChurn  float64 // mixed open-loop churn operations/s
	MixedWindow int     // mixed live churn window
	ProbeRate   float64 // sub-churn post-churn probe publications/s
	SatWindow   int     // saturation probe: matching publications in flight
	SLOms       float64 // notification latency limit
	Setups      int     // set-ups per run; setup_s is their median
}

func defaultScale() scale {
	return scale{
		Standing:    4096,
		Pool:        8192,
		MissShare:   0.2,
		ChurnK:      20,
		Instances:   1200,
		Window:      21 * 12,
		SteadyRate:  2000,
		MixedRate:   2000,
		MixedChurn:  1,
		MixedWindow: 21 * 12,
		ProbeRate:   2000,
		SatWindow:   64,
		SLOms:       5,
		Setups:      7,
	}
}

// pubEntry is one publication content with its oracle answer: the
// standing subscriptions it matches, found by brute force.
type pubEntry struct {
	pub    subscription.Publication
	expect []int32 // sorted standing indices
	sig    uint64  // sum of idSig over expect
}

// inputs is everything a run feeds the program, generated from the seed.
type inputs struct {
	standing []subscription.Subscription
	pool     []pubEntry
	churn    []subscription.Subscription // instance sets then s, instance after instance
	hash     uint64
}

// idSig spreads a standing index so that a sum of signatures detects a
// duplicate delivery that hides a missing one.
func idSig(i int32) uint64 {
	z := uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func generate(seed uint64, sc scale) *inputs {
	in := &inputs{}
	rng := rand.New(rand.NewPCG(seed, 0x70657266))
	in.standing = standingPopulation(rng, sc.Standing)
	in.pool = publicationPool(rng, in.standing, sc.Pool, sc.MissShare)
	in.churn = churnStream(rng, sc.Instances, sc.ChurnK)
	in.hash = hashInputs(in)
	return in
}

// standingPopulation has the shape of benchcases.TableBurst: broad
// parents and, for each, narrow children a quarter of its width on
// every attribute, in shuffled arrival order.
func standingPopulation(rng *rand.Rand, n int) []subscription.Subscription {
	nParents := n / 16
	if nParents < 1 {
		nParents = 1
	}
	parents := make([]subscription.Subscription, nParents)
	subs := make([]subscription.Subscription, 0, n)
	for i := range parents {
		bounds := make([]interval.Interval, attrs)
		for a := range bounds {
			lo := rng.Int64N(6000)
			bounds[a] = interval.New(lo, lo+2000+rng.Int64N(1500))
		}
		parents[i] = subscription.Subscription{Bounds: bounds}
		subs = append(subs, parents[i])
	}
	for len(subs) < n {
		p := parents[rng.IntN(nParents)]
		bounds := make([]interval.Interval, attrs)
		for a, b := range p.Bounds {
			w := (b.Hi - b.Lo) / 4
			off := rng.Int64N(b.Hi - b.Lo - w)
			bounds[a] = interval.New(b.Lo+off, b.Lo+off+w)
		}
		subs = append(subs, subscription.Subscription{Bounds: bounds})
	}
	rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	return subs
}

// publicationPool draws points inside random standing subscriptions,
// plus a share in the x1 region nothing subscribes to.
func publicationPool(rng *rand.Rand, standing []subscription.Subscription, n int, miss float64) []pubEntry {
	pool := make([]pubEntry, n)
	for i := range pool {
		vals := make([]int64, attrs)
		if rng.Float64() < miss {
			vals[0] = missLo + rng.Int64N(missHi-missLo+1)
			for a := 1; a < attrs; a++ {
				vals[a] = rng.Int64N(domainHi + 1)
			}
		} else {
			s := standing[rng.IntN(len(standing))]
			for a, b := range s.Bounds {
				vals[a] = b.Lo + rng.Int64N(b.Hi-b.Lo+1)
			}
		}
		e := pubEntry{pub: subscription.Publication{Values: vals}}
		for j, s := range standing {
			if s.Matches(e.pub) {
				e.expect = append(e.expect, int32(j))
				e.sig += idSig(int32(j))
			}
		}
		pool[i] = e
	}
	return pool
}

// churnStream concatenates internal/workload instances: union-only
// covers (RedundantCovering) and near misses (NonCover and
// ExtremeNonCover with small gaps), rotating. Each instance's set
// arrives before its tested subscription s. x1 is shifted into the
// churn region.
func churnStream(rng *rand.Rand, n, k int) []subscription.Subscription {
	cfg := workload.Config{K: k, M: attrs}
	out := make([]subscription.Subscription, 0, n*(k+1))
	for i := 0; i < n; i++ {
		var inst workload.Instance
		switch i % 3 {
		case 0:
			inst = workload.RedundantCovering(rng, cfg)
		case 1:
			inst = workload.NonCover(rng, cfg, churnGapNC)
		default:
			inst = workload.ExtremeNonCover(rng, cfg, churnGapENC)
		}
		for _, s := range append(inst.Set, inst.S) {
			b := append([]interval.Interval(nil), s.Bounds...)
			b[0] = interval.New(b[0].Lo+churnShift, b[0].Hi+churnShift)
			out = append(out, subscription.Subscription{Bounds: b})
		}
	}
	return out
}

func hashInputs(in *inputs) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	subs := func(list []subscription.Subscription) {
		put(int64(len(list)))
		for _, s := range list {
			for _, b := range s.Bounds {
				put(b.Lo)
				put(b.Hi)
			}
		}
	}
	subs(in.standing)
	subs(in.churn)
	put(int64(len(in.pool)))
	for _, e := range in.pool {
		for _, v := range e.pub.Values {
			put(v)
		}
		put(int64(len(e.expect)))
	}
	return h.Sum64()
}

func (in *inputs) hashString() string { return fmt.Sprintf("%016x", in.hash) }

// expects reports whether standing subscription idx is in e's oracle set.
func (e *pubEntry) expects(idx int32) bool {
	i := sort.Search(len(e.expect), func(i int) bool { return e.expect[i] >= idx })
	return i < len(e.expect) && e.expect[i] == idx
}
