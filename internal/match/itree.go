package match

import (
	"cmp"
	"slices"

	"probsum/internal/interval"
)

// entry is an interval tagged with the position of its subscription in
// the owning index.
type entry struct {
	iv  interval.Interval
	sub int
}

// itreeNode is a node of a centered (Edelsbrunner) interval tree:
// intervals strictly below the center live in the left subtree,
// strictly above in the right, and intervals crossing the center are
// stored twice — sorted by ascending Lo and by descending Hi — so a
// stabbing query scans only the prefix that can contain the point.
type itreeNode struct {
	center      int64
	left, right *itreeNode
	byLo        []entry // crossing intervals, ascending Lo
	byHi        []entry // crossing intervals, descending Hi
}

// buildITree constructs the tree in O(n log n).
func buildITree(entries []entry) *itreeNode {
	byLo, byHi := sortedEntries(entries)
	return buildSorted(byLo, byHi)
}

// sortedEntries returns copies of entries in ascending Lo order and in
// descending Hi order.
func sortedEntries(entries []entry) (byLo, byHi []entry) {
	byLo, byHi = slices.Clone(entries), slices.Clone(entries)
	slices.SortFunc(byLo, func(a, b entry) int { return cmp.Compare(a.iv.Lo, b.iv.Lo) })
	slices.SortFunc(byHi, func(a, b entry) int { return cmp.Compare(b.iv.Hi, a.iv.Hi) })
	return byLo, byHi
}

// buildSorted builds the tree over one set of entries given in both
// orders; it overwrites both slices.
func buildSorted(byLo, byHi []entry) *itreeNode {
	return buildSplit(byLo, byHi, make([]entry, len(byLo)), make([]entry, len(byHi)))
}

// buildSplit builds the subtree over the entries in byLo and byHi
// (the same set in both orders). Each level splits both orders stably
// into the equally long spare slices — left entries first, then right
// ones — so the crossing lists come out sorted and no level sorts
// again: O(n) per level. The inputs then serve as the children's
// spare space.
func buildSplit(byLo, byHi, spareLo, spareHi []entry) *itreeNode {
	if len(byLo) == 0 {
		return nil
	}
	// The median endpoint keeps the tree balanced, and it belongs to
	// some interval, so at least one entry crosses it and every split
	// shrinks.
	center := medianEndpoint(byLo, byHi)
	nl, nc := 0, 0
	for _, e := range byLo {
		switch {
		case e.iv.Hi < center:
			nl++
		case e.iv.Lo <= center:
			nc++
		}
	}
	node := &itreeNode{
		center: center,
		byLo:   splitAround(byLo, spareLo, center, nl, make([]entry, 0, nc)),
		byHi:   splitAround(byHi, spareHi, center, nl, make([]entry, 0, nc)),
	}
	nr := len(byLo) - nl - nc
	node.left = buildSplit(spareLo[:nl], spareHi[:nl], byLo[:nl], byHi[:nl])
	node.right = buildSplit(spareLo[nl:nl+nr], spareHi[nl:nl+nr], byLo[nl:nl+nr], byHi[nl:nl+nr])
	return node
}

// splitAround copies the entries of src lying wholly below center to
// dst[:nl] and those wholly above it to dst[nl:], both in src order,
// and appends the ones containing center to cross.
func splitAround(src, dst []entry, center int64, nl int, cross []entry) []entry {
	l, r := 0, nl
	for _, e := range src {
		switch {
		case e.iv.Hi < center:
			dst[l] = e
			l++
		case e.iv.Lo > center:
			dst[r] = e
			r++
		default:
			cross = append(cross, e)
		}
	}
	return cross
}

// medianEndpoint returns the value at index n of the 2n endpoints of
// the n entries in ascending order, merging the Lo values (ascending in
// byLo) with the Hi values (ascending from the end of byHi).
func medianEndpoint(byLo, byHi []entry) int64 {
	n := len(byLo)
	i, j := 0, n-1
	var v int64
	for k := 0; k <= n; k++ {
		if j < 0 || (i < n && byLo[i].iv.Lo <= byHi[j].iv.Hi) {
			v = byLo[i].iv.Lo
			i++
		} else {
			v = byHi[j].iv.Hi
			j--
		}
	}
	return v
}

// stab appends to out the sub positions of every interval containing v.
func (n *itreeNode) stab(v int64, out []int) []int {
	n.each(v, func(sub int) bool {
		out = append(out, sub)
		return true
	})
	return out
}

// each calls fn with the sub position of every interval containing v,
// stopping early — and returning false — once fn returns false.
func (n *itreeNode) each(v int64, fn func(sub int) bool) bool {
	for n != nil {
		switch {
		case v < n.center:
			// Crossing intervals contain v iff their Lo <= v.
			for _, e := range n.byLo {
				if e.iv.Lo > v {
					break
				}
				if !fn(e.sub) {
					return false
				}
			}
			n = n.left
		case v > n.center:
			// Crossing intervals contain v iff their Hi >= v.
			for _, e := range n.byHi {
				if e.iv.Hi < v {
					break
				}
				if !fn(e.sub) {
					return false
				}
			}
			n = n.right
		default:
			// v == center: every crossing interval contains it.
			for _, e := range n.byLo {
				if !fn(e.sub) {
					return false
				}
			}
			return true
		}
	}
	return true
}
