package skyband

import (
	"context"
	"fmt"
	"math"

	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/xheap"
)

// IRD is the incremental rho-skyband module of Section 5.3.2. It serves
// "get next" calls, each returning the record that joins the rho-skyband at
// the immediately larger radius around the seed w, together with that
// radius (the record's inflection radius).
//
// Internally it drives the score-ordered BBS scanner to fetch k-skyband
// members progressively into set T, where their exact inflection radii are
// known on arrival (only higher-scoring records can rho-dominate them, and
// those are all fetched earlier). Records are released once their
// inflection radius is no larger than a lower bound rho_ on the inflection
// radius of anything not yet fetched. The bound is the minimum, over the
// BBS heap contents (set S), of each entry's inflection radius with respect
// to the fetched set T; since radii only grow as T grows, bounds computed
// against an older T remain valid, and the implementation refreshes only
// the entry that currently blocks the minimum (lazy revalidation).
type IRD struct {
	w  geom.Vector
	k  int
	sc *Scanner
	pr *SkybandPruner

	t       []Member             // fetched k-skyband records, in decreasing score order
	tRadii  []float64            // inflection radius of each t entry
	pending xheap.Heap[pendItem] // fetched but not yet released, keyed by inflection radius

	// Set S: one boundEntry per scan push, indexed by push order, and a
	// min-heap of {bound, index} over them. A scan entry's index is the
	// index of its node's first pushed entry (base, indexed by NodeRef:
	// a node's entries are pushed together, in slot order, when it is
	// expanded) plus its slot.
	entries []boundEntry
	bounds  xheap.Heap[boundItem]
	base    []int

	// ws backs every mindist computation and the per-candidate mindist
	// buffer; IRD is single-goroutine, so owning one workspace is safe and
	// keeps the fetch loop allocation-free after warm-up.
	ws Workspace

	exhausted bool
}

// Released is one output of IRD: a record and the radius at which it joins
// the rho-skyband.
type Released struct {
	ID     int
	Point  geom.Vector
	Radius float64
}

type pendItem struct {
	rec Member
	rho float64
}

// Less orders the pending min-heap by inflection radius.
func (p pendItem) Less(o pendItem) bool { return p.rho < o.rho }

// boundEntry is one scan entry of set S.
type boundEntry struct {
	pt       geom.Vector
	tVersion int  // size of T when the entry's bound was computed
	dead     bool // popped by the scan: no longer in S
}

// boundItem is the bound heap's element: a lower bound on the inflection
// radius of entries[idx].
type boundItem struct {
	bound float64
	idx   int
}

// Less orders the bound min-heap by the stored lower bound.
func (b boundItem) Less(o boundItem) bool { return b.bound < o.bound }

// NewIRD starts an incremental rho-skyband computation around w.
func NewIRD(tree *rtree.Tree, w geom.Vector, k int) *IRD {
	ird := &IRD{
		w:  w,
		k:  k,
		pr: NewSkybandPruner(k),
	}
	ird.sc = NewScanner(tree, w)
	// The root is pushed before the hooks attach, so it never joins S.
	ird.sc.onPush = ird.push
	ird.sc.onPop = ird.pop
	return ird
}

// push adds a newly pushed scan entry to S with bound 0.
func (ird *IRD) push(e scanEntry) {
	idx := len(ird.entries)
	if e.slot == 0 {
		n := int(e.node)
		if n >= len(ird.base) {
			//ordlint:allow borrowck — base holds ints; the check counts every field of ird as holding the points stored below
			ird.base = append(ird.base, make([]int, n+1-len(ird.base))...)
		}
		ird.base[n] = idx
	}
	p, _ := ird.sc.resolve(e)
	//ordlint:allow borrowck — IRD is a per-query object: the points it stores never outlive the caller's lock on the tree
	ird.entries = append(ird.entries, boundEntry{pt: p})
	ird.bounds.Push(boundItem{idx: idx})
}

// pop removes a scan entry from S; its bound item is dropped lazily.
func (ird *IRD) pop(e scanEntry) {
	if e.node != rtree.NilNode {
		ird.entries[ird.base[e.node]+int(e.slot)].dead = true
	}
}

// inflectionOf computes the inflection radius of p against the current T.
func (ird *IRD) inflectionOf(p geom.Vector) float64 {
	if len(ird.t) < ird.k {
		return 0
	}
	mindists := ird.ws.mds[:0]
	for _, t := range ird.t {
		mindists = append(mindists, MindistWS(ird.w, p, t.Point, &ird.ws))
	}
	ird.ws.mds = mindists
	return InflectionRadiusInPlace(mindists, ird.k)
}

// boundAtLeast proves, when it can, that the inflection radius of p against
// the current T is at least x, and returns the bound it proved. Each record
// of T covers the radii [0, mindist] (all radii, for a dominator); the scan
// stops at the k-th interval covering x, and the smallest of those k
// mindists is a lower bound on the k-th largest one, the inflection radius.
// That bound is at least x, and +Inf when all k are dominators. The exact
// mindists are needed, not only their comparison with x: the stored bound
// decides later calls without revalidation, and a weaker (hyperplane
// distance) bound would send some of them through another fetch.
func (ird *IRD) boundAtLeast(p geom.Vector, x float64) (float64, bool) {
	count := 0
	bound := math.Inf(1)
	for _, t := range ird.t {
		md := math.Inf(1)
		if !t.Point.Dominates(p) {
			md = MindistWS(ird.w, p, t.Point, &ird.ws)
		}
		if md >= x {
			bound = min(bound, md)
			count++
			if count >= ird.k {
				return bound, true
			}
		}
	}
	return 0, false
}

// boundsClear reports whether every not-yet-fetched record provably has
// inflection radius at least x. Stored bounds are lower bounds computed
// against an older T (radii only grow as T grows), so entries are
// revalidated lazily: only while the minimum stored bound is below x, and
// each revalidation early-exits once it has proved x, storing the (often
// larger) bound it proved so later calls with larger x can skip the entry.
func (ird *IRD) boundsClear(x float64) bool {
	for ird.bounds.Len() > 0 {
		top := ird.bounds.Peek()
		be := &ird.entries[top.idx]
		if be.dead {
			ird.bounds.Pop()
			continue
		}
		if top.bound >= x {
			return true // heap min >= x, so every entry is
		}
		if be.tVersion == len(ird.t) {
			return false // bound is current and below x
		}
		b, ok := ird.boundAtLeast(be.pt, x)
		if !ok {
			// Genuinely below x at the current T; leave the stored (still
			// valid) bound in place — the next fetch changes T anyway.
			return false
		}
		top.bound = b // truthful lower bound, proved against current T
		be.tVersion = len(ird.t)
		ird.bounds.Fix(0)
	}
	return true // S is empty: nothing unfetched remains
}

// fetch advances the underlying k-skyband scan by one record. It returns
// false when the scan is exhausted.
func (ird *IRD) fetch() bool {
	id, p, ok := ird.sc.Next(ird.pr)
	if !ok {
		ird.exhausted = true
		return false
	}
	rho := ird.inflectionOf(p)
	ird.pr.Add(p)
	m := Member{ID: id, Point: p}
	//ordlint:allow borrowck — per-query object, as in push; tRadii holds floats
	ird.t, ird.tRadii = append(ird.t, m), append(ird.tRadii, rho)
	if !math.IsInf(rho, 1) {
		ird.pending.Push(pendItem{rec: m, rho: rho})
	}
	return true
}

// Next releases the rho-skyband member with the smallest remaining
// inflection radius. ok is false once the entire k-skyband is exhausted.
func (ird *IRD) Next() (Released, bool) {
	r, ok, _ := ird.NextCtx(context.Background()) //ordlint:allow senterr — context.Background never cancels, so the error is structurally nil
	return r, ok
}

// NextCtx is Next with cooperative cancellation. A single release can
// internally fetch thousands of k-skyband records (each an O(|T|)
// inflection computation), so the fetch loop itself polls ctx every few
// iterations and aborts with an error wrapping ctx.Err(). The returned
// record's Point aliases the dataset's storage (it is not a copy); it
// stays valid for the lifetime of the underlying tree and must be copied
// if retained beyond it.
func (ird *IRD) NextCtx(ctx context.Context) (Released, bool, error) {
	for i := 0; ; i++ {
		if i%64 == 0 {
			select {
			case <-ctx.Done():
				return Released{}, false, fmt.Errorf("skyband: retrieval cancelled: %w", ctx.Err())
			default:
			}
		}
		if ird.pending.Len() > 0 {
			if ird.exhausted || ird.boundsClear(ird.pending.Peek().rho) {
				it := ird.pending.Pop()
				return Released{ID: it.rec.ID, Point: it.rec.Point, Radius: it.rho}, true, nil
			}
		}
		if ird.exhausted {
			return Released{}, false, nil
		}
		ird.fetch()
	}
}

// FetchedCount returns how many k-skyband members IRD has fetched so far,
// a measure of the search effort (|T| in the paper's notation).
func (ird *IRD) FetchedCount() int { return len(ird.t) }
