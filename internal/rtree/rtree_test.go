package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"ordu/internal/geom"
)

// childLo returns the low corner of the i-th entry MBR of an internal
// node, a view into the rect arena (the counterpart of Tree.ChildHi, which
// only the tests need).
func childLo(t *Tree, n NodeRef, i int) geom.Vector {
	rb := t.rb(n, i)
	return geom.Vector(t.rects[rb : rb+t.dim : rb+t.dim])
}

func randPoints(rng *rand.Rand, n, d int) []geom.Vector {
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// checkInvariants walks the flat arena and validates the basic shape: child
// levels decrease by one, leaf entry count sums to size, and every stored
// entry rectangle exactly equals the recomputed MBR of its child.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.size == 0 {
		return
	}
	lo := make([]float64, tr.dim)
	hi := make([]float64, tr.dim)
	var walk func(n NodeRef) int
	walk = func(n NodeRef) int {
		cnt := tr.Count(n)
		if cnt > tr.fanout {
			t.Fatalf("node %d at level %d holds %d entries, fanout %d", n, tr.Level(n), cnt, tr.fanout)
		}
		if tr.Level(n) == 0 {
			for i := 0; i < cnt; i++ {
				p, ok := tr.Point(tr.LeafID(n, i))
				if !ok {
					t.Fatalf("leaf holds unknown id %d", tr.LeafID(n, i))
				}
				if !tr.LeafPoint(n, i).Equal(p) {
					t.Fatalf("leaf slot for id %d disagrees with Point", tr.LeafID(n, i))
				}
			}
			return cnt
		}
		count := 0
		for i := 0; i < cnt; i++ {
			c := tr.Child(n, i)
			if tr.Level(c) != tr.Level(n)-1 {
				t.Fatalf("child level %d under node level %d", tr.Level(c), tr.Level(n))
			}
			tr.computeNodeRect(c, lo, hi)
			if !childLo(tr, n, i).Equal(lo) || !tr.ChildHi(n, i).Equal(hi) {
				t.Fatalf("stale MBR at level %d: stored %v/%v, actual %v/%v",
					tr.Level(n), childLo(tr, n, i), tr.ChildHi(n, i), geom.Vector(lo), geom.Vector(hi))
			}
			count += walk(c)
		}
		return count
	}
	if got := walk(tr.root); got != tr.size {
		t.Fatalf("tree holds %d leaf entries, size says %d", got, tr.size)
	}
}

func TestBulkLoadAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 33, 100, 2000} {
		pts := randPoints(rng, n, 3)
		tr := BulkLoad(pts)
		checkInvariants(t, tr)
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		if n == 0 {
			continue
		}
		q := geom.NewRect(geom.Vector{0.2, 0.2, 0.2}, geom.Vector{0.7, 0.7, 0.7})
		got := tr.RangeQuery(q)
		sort.Ints(got)
		var want []int
		for i, p := range pts {
			if q.Contains(p) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: range returned %d, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: range mismatch at %d", n, i)
			}
		}
	}
}

func TestInsertMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPoints(rng, 500, 4)
	tr := New(4)
	for i, p := range pts {
		if err := tr.Insert(i, p); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, tr)
	q := geom.NewRect(geom.Vector{0, 0, 0, 0}, geom.Vector{0.5, 1, 1, 0.5})
	got := tr.RangeQuery(q)
	var want int
	for _, p := range pts {
		if q.Contains(p) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("insert-built range = %d, want %d", len(got), want)
	}
}

func TestInsertRejectsBadInput(t *testing.T) {
	tr := New(2)
	if err := tr.Insert(0, geom.Vector{1, 2, 3}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := tr.Insert(1, geom.Vector{0.1, 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, geom.Vector{0.3, 0.4}); err == nil {
		t.Error("duplicate id accepted")
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 400, 3)
	tr := BulkLoad(pts)
	// Delete every third point.
	removed := map[int]bool{}
	for i := 0; i < len(pts); i += 3 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) failed", i)
		}
		removed[i] = true
	}
	checkInvariants(t, tr)
	if tr.Len() != len(pts)-len(removed) {
		t.Fatalf("Len = %d", tr.Len())
	}
	all := geom.NewRect(geom.Vector{0, 0, 0}, geom.Vector{1, 1, 1})
	got := tr.RangeQuery(all)
	if len(got) != tr.Len() {
		t.Fatalf("range after delete = %d, want %d", len(got), tr.Len())
	}
	for _, id := range got {
		if removed[id] {
			t.Fatalf("deleted id %d still reachable", id)
		}
	}
	if tr.Delete(0) {
		t.Error("double delete succeeded")
	}
	// Deleting everything must leave a usable empty tree.
	for _, id := range got {
		if !tr.Delete(id) {
			t.Fatalf("Delete(%d) failed", id)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after full delete = %d", tr.Len())
	}
	if err := tr.Insert(9999, geom.Vector{0.5, 0.5, 0.5}); err != nil {
		t.Fatalf("insert into emptied tree: %v", err)
	}
}

func TestCountDominated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 800, 3)
	tr := BulkLoad(pts)
	for trial := 0; trial < 20; trial++ {
		p := pts[rng.Intn(len(pts))]
		want := 0
		for _, q := range pts {
			if p.Dominates(q) {
				want++
			}
		}
		if got := tr.CountDominated(p); got != want {
			t.Fatalf("CountDominated = %d, want %d", got, want)
		}
	}
}

func TestPointLookup(t *testing.T) {
	pts := []geom.Vector{{0.1, 0.9}, {0.5, 0.5}}
	tr := BulkLoad(pts)
	p, ok := tr.Point(1)
	if !ok || !p.Equal(pts[1]) {
		t.Error("Point lookup failed")
	}
	if _, ok := tr.Point(99); ok {
		t.Error("Point(99) should miss")
	}
}

func TestMixedInsertDeleteStress(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := New(2, WithFanout(8))
	live := map[int]geom.Vector{}
	next := 0
	for op := 0; op < 3000; op++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			p := geom.Vector{rng.Float64(), rng.Float64()}
			if err := tr.Insert(next, p); err != nil {
				t.Fatal(err)
			}
			live[next] = p
			next++
		} else {
			// Delete a random live id.
			var id int
			for id = range live {
				break
			}
			if !tr.Delete(id) {
				t.Fatalf("delete live id %d failed", id)
			}
			delete(live, id)
		}
	}
	checkInvariants(t, tr)
	all := geom.NewRect(geom.Vector{0, 0}, geom.Vector{1, 1})
	got := tr.RangeQuery(all)
	if len(got) != len(live) {
		t.Fatalf("reachable %d, live %d", len(got), len(live))
	}
}

func TestHeightGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	small := BulkLoad(randPoints(rng, 10, 2))
	big := BulkLoad(randPoints(rng, 5000, 2))
	if small.Height() >= big.Height() {
		t.Errorf("heights: small %d, big %d", small.Height(), big.Height())
	}
}

// TestSlotStability pins the packed-slot contract: LeafPoint views taken
// before a long run of inserts still read the same coordinates afterwards
// (point chunks are never reallocated, only appended).
func TestSlotStability(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPoints(rng, 200, 3)
	tr := BulkLoad(pts)
	type held struct {
		id int
		v  geom.Vector
	}
	var views []held
	root := tr.Root()
	var collect func(n NodeRef)
	collect = func(n NodeRef) {
		if tr.Level(n) == 0 {
			for i := 0; i < tr.Count(n); i++ {
				views = append(views, held{tr.LeafID(n, i), tr.LeafPoint(n, i)})
			}
			return
		}
		for i := 0; i < tr.Count(n); i++ {
			collect(tr.Child(n, i))
		}
	}
	collect(root)
	for i := 0; i < 5000; i++ {
		p := geom.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		if err := tr.Insert(1000+i, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range views {
		if !h.v.Equal(pts[h.id]) {
			t.Fatalf("held view for id %d changed after growth: %v != %v", h.id, h.v, pts[h.id])
		}
	}
}
