package rtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ordu/internal/geom"
)

// refStore is the brute-force reference the property tests compare the tree
// against: a flat id -> point map with linear-scan range queries.
type refStore map[int]geom.Vector

func (r refStore) rangeIDs(rect geom.Rect) []int {
	var out []int
	for id, p := range r {
		if rect.Contains(p) {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// checkParity asserts that tree and reference agree on Len, on Point lookups
// for every live id (plus a few dead ones), and on range queries.
func checkParity(t *testing.T, tr *Tree, ref refStore, rng *rand.Rand, step string) {
	t.Helper()
	if tr.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, reference holds %d", step, tr.Len(), len(ref))
	}
	for id, want := range ref {
		got, ok := tr.Point(id)
		if !ok || !got.Equal(want) {
			t.Fatalf("%s: Point(%d) = %v, %v; want %v, true", step, id, got, ok, want)
		}
	}
	if _, ok := tr.Point(-1); ok {
		t.Fatalf("%s: Point(-1) reported present", step)
	}
	d := tr.Dim()
	for q := 0; q < 4; q++ {
		lo := make(geom.Vector, d)
		hi := make(geom.Vector, d)
		for j := 0; j < d; j++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[j], hi[j] = a, b
		}
		rect := geom.NewRect(lo, hi)
		got := append([]int(nil), tr.RangeQuery(rect)...)
		sort.Ints(got)
		want := ref.rangeIDs(rect)
		if len(got) != len(want) {
			t.Fatalf("%s: range query returned %d ids, want %d (got %v, want %v)", step, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: range query ids %v, want %v", step, got, want)
			}
		}
	}
	checkStructure(t, tr, step)
}

// checkStructure validates the R-tree shape invariants that Insert/Delete
// must preserve in the flat arena: entry rectangles exactly bound their
// subtrees, levels decrease by one per edge, no node exceeds the fanout,
// every non-root node respects minimum fill (the underflow condensation
// contract), and the slot maps stay mutually consistent.
func checkStructure(t *testing.T, tr *Tree, step string) {
	t.Helper()
	if tr.size == 0 {
		return
	}
	lo := make([]float64, tr.dim)
	hi := make([]float64, tr.dim)
	var walk func(n NodeRef, isRoot bool)
	walk = func(n NodeRef, isRoot bool) {
		cnt := tr.Count(n)
		if cnt > tr.fanout {
			t.Fatalf("%s: node at level %d holds %d entries, fanout %d", step, tr.Level(n), cnt, tr.fanout)
		}
		if !isRoot && cnt < tr.minFill {
			t.Fatalf("%s: non-root node at level %d underfull: %d < minFill %d", step, tr.Level(n), cnt, tr.minFill)
		}
		if tr.Level(n) == 0 {
			if tr.rseg[n] != -1 {
				t.Fatalf("%s: leaf node %d owns a rect segment", step, n)
			}
			for i := 0; i < cnt; i++ {
				id := tr.LeafID(n, i)
				p, ok := tr.Point(id)
				if !ok {
					t.Fatalf("%s: leaf holds unknown id %d", step, id)
				}
				if !tr.LeafPoint(n, i).Equal(p) {
					t.Fatalf("%s: leaf slot for id %d is not the point", step, id)
				}
				slot := tr.ents[tr.eb(n)+i]
				if got, ok := tr.slotOf[id]; !ok || got != slot {
					t.Fatalf("%s: slotOf[%d] = %d (%v), leaf references slot %d", step, id, got, ok, slot)
				}
			}
			return
		}
		for i := 0; i < cnt; i++ {
			c := tr.Child(n, i)
			if tr.Level(c) != tr.Level(n)-1 {
				t.Fatalf("%s: child level %d under node level %d", step, tr.Level(c), tr.Level(n))
			}
			if tr.Count(c) == 0 {
				t.Fatalf("%s: empty child node at level %d", step, tr.Level(c))
			}
			tr.computeNodeRect(c, lo, hi)
			if !childLo(tr, n, i).Equal(lo) || !tr.ChildHi(n, i).Equal(hi) {
				t.Fatalf("%s: stale MBR at level %d: stored %v/%v, actual %v/%v",
					step, tr.Level(n), childLo(tr, n, i), tr.ChildHi(n, i), geom.Vector(lo), geom.Vector(hi))
			}
			walk(c, false)
		}
	}
	walk(tr.root, true)
	if len(tr.slotOf) != tr.size {
		t.Fatalf("%s: slotOf holds %d ids, size %d", step, len(tr.slotOf), tr.size)
	}
	for id, slot := range tr.slotOf {
		if tr.idAt[slot] != id {
			t.Fatalf("%s: idAt[%d] = %d, slotOf says %d", step, slot, tr.idAt[slot], id)
		}
	}
}

// applyOps drives one interleaved Insert/Delete sequence against both the
// tree and the reference, checking parity after every operation. The opcode
// stream comes either from a seeded rand (property test) or the fuzzer.
func applyOps(t *testing.T, dim, fanout int, ops []byte, rng *rand.Rand) {
	t.Helper()
	tr := New(dim, WithFanout(fanout))
	ref := refStore{}
	nextID := 0
	live := []int{} // insertion-ordered live ids, for deterministic victim picks
	for i, op := range ops {
		switch {
		case op%4 != 0 || len(live) == 0: // bias 3:1 towards inserts
			p := make(geom.Vector, dim)
			for j := range p {
				p[j] = rng.Float64()
			}
			id := nextID
			nextID++
			if err := tr.Insert(id, p); err != nil {
				t.Fatalf("op %d: Insert(%d) failed: %v", i, id, err)
			}
			ref[id] = p
			live = append(live, id)
		default:
			k := int(op/4) % len(live)
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			if !tr.Delete(id) {
				t.Fatalf("op %d: Delete(%d) reported missing", i, id)
			}
			delete(ref, id)
			if tr.Delete(id) {
				t.Fatalf("op %d: double Delete(%d) succeeded", i, id)
			}
		}
		checkParity(t, tr, ref, rng, fmt.Sprintf("dim=%d fanout=%d op=%d", dim, fanout, i))
	}
}

// TestMutationParityVsReference is the Delete-underflow property test: long
// random interleavings of Insert and Delete at small fanouts (forcing
// frequent splits, condensations and root collapses) must preserve Len,
// Point lookups, range-query parity and the structural invariants after
// every single operation.
func TestMutationParityVsReference(t *testing.T) {
	for _, cfg := range []struct {
		dim, fanout, ops int
		seed             int64
	}{
		{2, 4, 300, 1},
		{2, 5, 300, 2},
		{3, 4, 250, 3},
		{4, 6, 250, 4},
		{5, 8, 200, 5},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("d%d_f%d", cfg.dim, cfg.fanout), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(cfg.seed))
			ops := make([]byte, cfg.ops)
			rng.Read(ops)
			applyOps(t, cfg.dim, cfg.fanout, ops, rand.New(rand.NewSource(cfg.seed+100)))
		})
	}
}

// TestDeleteToEmptyAndRefill drains a populated tree completely and grows it
// back, twice — the regime where root collapse and orphan reinsertion at
// shrinking heights are exercised hardest.
func TestDeleteToEmptyAndRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New(3, WithFanout(4))
	ref := refStore{}
	id := 0
	for round := 0; round < 2; round++ {
		for i := 0; i < 120; i++ {
			p := geom.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
			if err := tr.Insert(id, p); err != nil {
				t.Fatalf("Insert(%d): %v", id, err)
			}
			ref[id] = p
			id++
		}
		checkParity(t, tr, ref, rng, fmt.Sprintf("round %d grown", round))
		ids := make([]int, 0, len(ref))
		for rid := range ref {
			ids = append(ids, rid)
		}
		sort.Ints(ids)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for i, rid := range ids {
			if !tr.Delete(rid) {
				t.Fatalf("Delete(%d) reported missing", rid)
			}
			delete(ref, rid)
			if i%7 == 0 {
				checkParity(t, tr, ref, rng, fmt.Sprintf("round %d drain %d", round, i))
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("round %d: drained tree reports Len %d", round, tr.Len())
		}
	}
}

// TestDuplicateCoordinateMutations exercises Delete's containment-guided
// descent when many records share coordinates: every leaf rect is identical,
// so the search must distinguish records by id alone.
func TestDuplicateCoordinateMutations(t *testing.T) {
	tr := New(2, WithFanout(4))
	ref := refStore{}
	rng := rand.New(rand.NewSource(11))
	grid := []float64{0, 0.5, 1}
	id := 0
	for rep := 0; rep < 8; rep++ {
		for _, x := range grid {
			for _, y := range grid {
				p := geom.Vector{x, y}
				if err := tr.Insert(id, p); err != nil {
					t.Fatalf("Insert(%d): %v", id, err)
				}
				ref[id] = p
				id++
			}
		}
	}
	checkParity(t, tr, ref, rng, "grown")
	ids := make([]int, 0, len(ref))
	for rid := range ref {
		ids = append(ids, rid)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, rid := range ids {
		if !tr.Delete(rid) {
			t.Fatalf("Delete(%d) reported missing", rid)
		}
		delete(ref, rid)
		checkParity(t, tr, ref, rng, "drain")
	}
}

// TestBulkLoadThenMutate checks that dynamic mutation of an STR-packed tree
// preserves parity. Bulk loading can legally leave tail nodes below minFill,
// so this test checks query parity (not fill) after every op.
func TestBulkLoadThenMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 257 // not a multiple of the fanout: forces an underfull STR tail
	pts := make([]geom.Vector, n)
	ref := refStore{}
	for i := range pts {
		pts[i] = geom.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		ref[i] = pts[i]
	}
	tr := BulkLoad(pts, WithFanout(8))
	nextID := n
	for i := 0; i < 300; i++ {
		if i%3 == 0 && len(ref) > 0 {
			var victim int
			for id := range ref {
				victim = id
				break
			}
			if !tr.Delete(victim) {
				t.Fatalf("op %d: Delete(%d) reported missing", i, victim)
			}
			delete(ref, victim)
		} else {
			p := geom.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
			if err := tr.Insert(nextID, p); err != nil {
				t.Fatalf("op %d: Insert(%d): %v", i, nextID, err)
			}
			ref[nextID] = p
			nextID++
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, tr.Len(), len(ref))
		}
		for q := 0; q < 2; q++ {
			lo := geom.Vector{rng.Float64() * 0.5, rng.Float64() * 0.5, rng.Float64() * 0.5}
			hi := geom.Vector{lo[0] + 0.5, lo[1] + 0.5, lo[2] + 0.5}
			got := tr.RangeQuery(geom.NewRect(lo, hi))
			if len(got) != len(ref.rangeIDs(geom.NewRect(lo, hi))) {
				t.Fatalf("op %d: range parity broken", i)
			}
		}
	}
	for id, want := range ref {
		got, ok := tr.Point(id)
		if !ok || !got.Equal(want) {
			t.Fatalf("Point(%d) = %v, %v; want %v", id, got, ok, want)
		}
	}
}

// FuzzMutationParity lets the fuzzer pick the opcode stream; coordinates
// still come from a rand seeded by the stream so inputs stay minimal.
func FuzzMutationParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0, 8, 16}, int64(1))
	f.Add([]byte{1, 1, 1, 1, 0, 0, 0, 0, 4, 8}, int64(2))
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		if len(ops) > 160 {
			ops = ops[:160]
		}
		applyOps(t, 2, 4, ops, rand.New(rand.NewSource(seed)))
	})
}

// TestCountDominatorsParity checks the dominator-count walk against a brute
// force over the reference store, across interleaved inserts and deletes.
func TestCountDominatorsParity(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(77))
	const d = 3
	tr := New(d, WithFanout(4))
	ref := refStore{}
	nextID := 0
	probe := func() {
		q := make(geom.Vector, d)
		for j := range q {
			q[j] = rng.Float64()
		}
		want := 0
		for _, p := range ref {
			if p.Dominates(q) {
				want++
			}
		}
		if got := tr.CountDominators(q); got != want {
			t.Fatalf("CountDominators(%v) = %d, want %d", q, got, want)
		}
		// Also probe at an indexed point: a record never dominates itself.
		for id, p := range ref {
			want := 0
			for oid, op := range ref {
				if oid != id && op.Dominates(p) {
					want++
				}
			}
			if got := tr.CountDominators(p); got != want {
				t.Fatalf("CountDominators(point %d) = %d, want %d", id, got, want)
			}
			break
		}
	}
	for op := 0; op < 400; op++ {
		if op%4 == 0 && len(ref) > 0 {
			for id := range ref {
				if !tr.Delete(id) {
					t.Fatalf("Delete(%d) missing", id)
				}
				delete(ref, id)
				break
			}
		} else {
			p := make(geom.Vector, d)
			for j := range p {
				p[j] = rng.Float64()
			}
			if err := tr.Insert(nextID, p); err != nil {
				t.Fatal(err)
			}
			ref[nextID] = p
			nextID++
		}
		if op%7 == 0 {
			probe()
		}
	}
	probe()
}
