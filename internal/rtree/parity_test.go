package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/rtree/legacy"
)

// checkTreesIdentical walks the flat tree and the legacy pointer tree in
// lockstep and requires bit-for-bit agreement: same levels, same entry
// counts, same entry order, identical MBR floats and identical leaf ids.
// Structural identity is the strongest parity statement available — every
// traversal (range, dominance counts, BBS, BBR) reads only this structure,
// so identical structure forces identical visit and output order.
func checkTreesIdentical(t *testing.T, ft *Tree, lt *legacy.Tree, step string) {
	t.Helper()
	if ft.Len() != lt.Len() {
		t.Fatalf("%s: Len %d vs legacy %d", step, ft.Len(), lt.Len())
	}
	if ft.Len() == 0 {
		return
	}
	if ft.Height() != lt.Height() {
		t.Fatalf("%s: Height %d vs legacy %d", step, ft.Height(), lt.Height())
	}
	var walk func(fn NodeRef, ln *legacy.Node, path string)
	walk = func(fn NodeRef, ln *legacy.Node, path string) {
		if ft.Level(fn) != ln.Level {
			t.Fatalf("%s: node %s level %d vs legacy %d", step, path, ft.Level(fn), ln.Level)
		}
		if ft.Count(fn) != len(ln.Entries) {
			t.Fatalf("%s: node %s count %d vs legacy %d", step, path, ft.Count(fn), len(ln.Entries))
		}
		for i, le := range ln.Entries {
			if ln.Level == 0 {
				if ft.LeafID(fn, i) != le.ID {
					t.Fatalf("%s: node %s leaf slot %d id %d vs legacy %d", step, path, i, ft.LeafID(fn, i), le.ID)
				}
				if !ft.LeafPoint(fn, i).Equal(geom.Vector(le.Rect.Lo)) {
					t.Fatalf("%s: node %s leaf slot %d point %v vs legacy %v", step, path, i, ft.LeafPoint(fn, i), le.Rect.Lo)
				}
				continue
			}
			if !childLo(ft, fn, i).Equal(geom.Vector(le.Rect.Lo)) || !ft.ChildHi(fn, i).Equal(geom.Vector(le.Rect.Hi)) {
				t.Fatalf("%s: node %s entry %d rect %v/%v vs legacy %v/%v",
					step, path, i, childLo(ft, fn, i), ft.ChildHi(fn, i), le.Rect.Lo, le.Rect.Hi)
			}
			walk(ft.Child(fn, i), le.Child, fmt.Sprintf("%s.%d", path, i))
		}
	}
	walk(ft.Root(), lt.Root(), "root")
}

// TestBulkLoadParityVsLegacy builds flat and legacy trees over identical
// randomized datasets and requires structural identity, across sizes that
// cover single-leaf, two-level and three-level STR packings, and dimensions
// that exercise every tiling recursion depth.
func TestBulkLoadParityVsLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, d := range []int{2, 3, 4, 6} {
		for _, n := range []int{1, 31, 32, 33, 1000, 5000} {
			pts := randPoints(rng, n, d)
			ft := BulkLoad(pts)
			lt := legacy.BulkLoad(pts)
			checkTreesIdentical(t, ft, lt, fmt.Sprintf("bulk d=%d n=%d", d, n))
		}
	}
}

// TestMutationParityVsLegacy drives identical interleaved Insert/Delete
// streams through both implementations at a small fanout (forcing splits,
// condensations and root collapses) and requires structural identity plus
// identical RangeQuery output — including order — after every operation.
func TestMutationParityVsLegacy(t *testing.T) {
	for _, cfg := range []struct {
		dim, fanout, ops int
		seed             int64
	}{
		{2, 4, 400, 41},
		{3, 5, 300, 42},
		{4, 8, 300, 43},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("d%d_f%d", cfg.dim, cfg.fanout), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(cfg.seed))
			ft := New(cfg.dim, WithFanout(cfg.fanout))
			lt := legacy.New(cfg.dim, legacy.WithFanout(cfg.fanout))
			var live []int
			nextID := 0
			for op := 0; op < cfg.ops; op++ {
				if len(live) == 0 || rng.Float64() < 0.7 {
					p := make(geom.Vector, cfg.dim)
					for j := range p {
						p[j] = rng.Float64()
					}
					if err := ft.Insert(nextID, p); err != nil {
						t.Fatalf("op %d: flat Insert: %v", op, err)
					}
					if err := lt.Insert(nextID, p); err != nil {
						t.Fatalf("op %d: legacy Insert: %v", op, err)
					}
					live = append(live, nextID)
					nextID++
				} else {
					k := rng.Intn(len(live))
					id := live[k]
					live = append(live[:k], live[k+1:]...)
					if !ft.Delete(id) {
						t.Fatalf("op %d: flat Delete(%d) missing", op, id)
					}
					if !lt.Delete(id) {
						t.Fatalf("op %d: legacy Delete(%d) missing", op, id)
					}
				}
				checkTreesIdentical(t, ft, lt, fmt.Sprintf("op %d", op))
				// RangeQuery emits in traversal order; identical structure must
				// give identical output without sorting.
				lo := make(geom.Vector, cfg.dim)
				hi := make(geom.Vector, cfg.dim)
				for j := 0; j < cfg.dim; j++ {
					a, b := rng.Float64(), rng.Float64()
					if a > b {
						a, b = b, a
					}
					lo[j], hi[j] = a, b
				}
				rect := geom.NewRect(lo, hi)
				fg := ft.RangeQuery(rect)
				lg := lt.RangeQuery(rect)
				if len(fg) != len(lg) {
					t.Fatalf("op %d: range %d ids vs legacy %d", op, len(fg), len(lg))
				}
				for i := range fg {
					if fg[i] != lg[i] {
						t.Fatalf("op %d: range order diverges at %d: %v vs %v", op, i, fg, lg)
					}
				}
			}
		})
	}
}

// TestDominanceCountParityVsLegacy compares the branch-free dominance-count
// kernels against the legacy early-exit walks on a bulk-loaded tree with
// duplicated coordinates (ties are where a branch-free flag accumulation
// could silently diverge from short-circuit comparisons).
func TestDominanceCountParityVsLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const d = 3
	pts := make([]geom.Vector, 1500)
	for i := range pts {
		p := make(geom.Vector, d)
		for j := range p {
			// Quantized coordinates: frequent exact ties across records.
			p[j] = float64(rng.Intn(16)) / 15
		}
		pts[i] = p
	}
	ft := BulkLoad(pts)
	lt := legacy.BulkLoad(pts)
	checkTreesIdentical(t, ft, lt, "bulk")
	for trial := 0; trial < 200; trial++ {
		q := pts[rng.Intn(len(pts))]
		if fg, lg := ft.CountDominated(q), lt.CountDominated(q); fg != lg {
			t.Fatalf("CountDominated(%v) = %d, legacy %d", q, fg, lg)
		}
		if fg, lg := ft.CountDominators(q), lt.CountDominators(q); fg != lg {
			t.Fatalf("CountDominators(%v) = %d, legacy %d", q, fg, lg)
		}
	}
}
