package skyband

import (
	"ordu/internal/geom"
	"ordu/internal/rtree"
)

// Pruner decides whether a candidate point (a record, or the top corner of
// an index node, which score-bounds its whole subtree) can be excluded from
// a progressive scan. BBS's correctness requires only that a pruned point
// could never belong to the result, given the records emitted so far.
type Pruner interface {
	Prune(p geom.Vector) bool
}

// scanEntry is one element of the branch-and-bound heap: an index node or a
// record, keyed by the (upper bound of) score for the scan's seed vector.
// It holds no pointer, so sifting it moves 24 bytes and no write barrier
// runs. The point and the id are resolved from the tree through (node,
// slot), the node holding the entry and its index there: a record sits in
// a leaf (LeafPoint, LeafID), a child node in an internal node (ChildHi
// for its top corner, Child for the node). The root, held by no node, has
// node NilNode; its top corner is the scanner's top.
type scanEntry struct {
	score float64
	sum   float64 // coordinate sum; breaks score ties so that a dominating
	// record is always popped before the record it dominates
	node rtree.NodeRef
	slot int32
}

// Scanner is the paper's amended BBS (Sections 4.2, 5.3.2): it visits index
// nodes and records in decreasing (upper bound of) score for the seed w,
// using a max-heap, and emits the records that survive a caller-supplied
// pruner. The visiting order guarantees that no record emitted later can
// dominate (or rho-dominate, for any rho) one emitted earlier, which is the
// property BBS's correctness rests on.
//
// The heap is the scanner's own rather than an xheap.Heap: its order needs
// the tree to break exact ties, and a generic heap calls a comparator that
// carries state through the instantiation's dictionary, an indirect call
// on every comparison. Here less is a direct call.
type Scanner struct {
	tree    *rtree.Tree
	w       geom.Vector
	top     geom.Vector // the root's top corner
	h       []scanEntry // max-heap under less
	visited int         // heap pops, for instrumentation

	// Observers, used by IRD to maintain lower-bound inflection radii for
	// the not-yet-considered part of the dataset (set S in the paper).
	onPush func(e scanEntry)
	onPop  func(e scanEntry)
}

// NewScanner starts a scan of tree in decreasing score order for w.
func NewScanner(tree *rtree.Tree, w geom.Vector) *Scanner {
	s := &Scanner{tree: tree, w: w}
	if tree.Root() != rtree.NilNode {
		b, _ := tree.Bounds()
		s.top = b.TopCorner()
		s.push(s.top, rtree.NilNode, 0)
	}
	return s
}

// resolve returns the point of e (a record's point or a node's top corner)
// and whether e is a record.
//
//ordlint:borrows — the point aliases the tree's storage or the scanner's top corner
func (s *Scanner) resolve(e scanEntry) (geom.Vector, bool) {
	if e.node == rtree.NilNode {
		return s.top, false
	}
	if s.tree.Level(e.node) == 0 {
		return s.tree.LeafPoint(e.node, int(e.slot)), true
	}
	return s.tree.ChildHi(e.node, int(e.slot)), false
}

// less orders the scan max-heap: higher score first, larger coordinate sum
// on ties. Only when both tie exactly are the points resolved: then a
// lexicographically larger point, then nodes before records, then the
// smaller id extend the comparison to a strict total order on records, so
// the emission sequence of a scan is a property of the dataset alone, not
// of heap internals. A node always sorts no later than anything in its
// subtree (its top corner weakly dominates every descendant point).
func (s *Scanner) less(a, b scanEntry) bool {
	if a.score != b.score { //ordlint:allow floatcmp — tie-break on stored keys
		return a.score > b.score
	}
	if a.sum != b.sum { //ordlint:allow floatcmp — tie-break on stored keys
		return a.sum > b.sum
	}
	return s.tieLess(a, b)
}

// tieLess is less on entries whose score and sum tie exactly.
func (s *Scanner) tieLess(a, b scanEntry) bool {
	pa, ra := s.resolve(a)
	pb, rb := s.resolve(b)
	for j := range pa {
		if pa[j] != pb[j] { //ordlint:allow floatcmp — tie-break on stored keys
			return pa[j] > pb[j]
		}
	}
	if ra != rb {
		// A node whose top corner coincides with a record's point must be
		// expanded first, so the record emission sequence never runs ahead
		// of an unexpanded subtree with an equal bound.
		return rb
	}
	if !ra {
		return false // two nodes with one top corner: equal in the order
	}
	return s.tree.LeafID(a.node, int(a.slot)) < s.tree.LeafID(b.node, int(b.slot))
}

// push adds the entry at slot i of node n (the root when n is NilNode),
// whose point is p.
//
//ordlint:bounded — i < Count(n), which is an int16
func (s *Scanner) push(p geom.Vector, n rtree.NodeRef, i int) {
	e := scanEntry{score: s.w.Dot(p), sum: p.Sum(), node: n, slot: int32(i)}
	s.h = append(s.h, e)
	s.up(len(s.h) - 1)
	if s.onPush != nil {
		s.onPush(e)
	}
}

// pop removes and returns the first entry of the order.
func (s *Scanner) pop() scanEntry {
	n := len(s.h) - 1
	s.h[0], s.h[n] = s.h[n], s.h[0]
	e := s.h[n]
	s.h = s.h[:n]
	if n > 0 {
		s.down(0)
	}
	return e
}

func (s *Scanner) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.h[i], s.h[parent]) {
			return
		}
		s.h[i], s.h[parent] = s.h[parent], s.h[i]
		i = parent
	}
}

func (s *Scanner) down(i int) {
	n := len(s.h)
	for left := 2*i + 1; left < n; left = 2*i + 1 {
		least := left
		if right := left + 1; right < n && s.less(s.h[right], s.h[left]) {
			least = right
		}
		if !s.less(s.h[least], s.h[i]) {
			return
		}
		s.h[i], s.h[least] = s.h[least], s.h[i]
		i = least
	}
}

// Next returns the next surviving record in decreasing score order. The
// pruner may be nil, in which case every record is emitted (that is BBR's
// ranked retrieval). ok is false when the scan is exhausted. The returned
// point aliases the tree's storage (no copy is made); it stays valid for
// the lifetime of the tree and must be copied if retained beyond it.
//
//ordlint:borrows — the point aliases the tree's packed storage
func (s *Scanner) Next(pruner Pruner) (id int, p geom.Vector, ok bool) {
	t := s.tree
	for len(s.h) > 0 {
		e := s.pop()
		s.visited++
		if s.onPop != nil {
			s.onPop(e)
		}
		p, record := s.resolve(e)
		if pruner != nil && pruner.Prune(p) {
			continue
		}
		if record {
			return t.LeafID(e.node, int(e.slot)), p, true
		}
		n := t.Root()
		if e.node != rtree.NilNode {
			n = t.Child(e.node, int(e.slot))
		}
		cnt := t.Count(n)
		if t.Level(n) == 0 {
			for i := 0; i < cnt; i++ {
				s.push(t.LeafPoint(n, i), n, i)
			}
		} else {
			for i := 0; i < cnt; i++ {
				s.push(t.ChildHi(n, i), n, i)
			}
		}
	}
	return 0, nil, false
}

// Visited returns the number of heap pops performed, a proxy for I/O in
// the paper's disk-based analysis.
func (s *Scanner) Visited() int { return s.visited }

// Exhausted reports whether the scan has no remaining entries.
func (s *Scanner) Exhausted() bool { return len(s.h) == 0 }
