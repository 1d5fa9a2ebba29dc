package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ordu/internal/collection"
	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/region"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
)

// fuzzPoints generates n records of dimension d. Shapes 0–2 are the IND,
// ANTI and COR benchmarks (ANTI clips records onto the faces x_j = 0 and
// x_j = 1); shape 3 starts from ANTI and adds the degeneracies: exact
// duplicates, coordinates snapped to a coarse grid (exact score ties), and
// records clipped onto the shared face x_0 = 1.
func fuzzPoints(shape uint8, n, d int, seed int64) []geom.Vector {
	switch shape % 4 {
	case 0:
		return data.Synthetic(data.IND, n, d, seed)
	case 1:
		return data.Synthetic(data.ANTI, n, d, seed)
	case 2:
		return data.Synthetic(data.COR, n, d, seed)
	}
	pts := data.Synthetic(data.ANTI, n, d, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i, p := range pts {
		switch rng.Intn(4) {
		case 0:
			if i > 0 {
				pts[i] = pts[rng.Intn(i)].Clone()
			}
		case 1:
			for j := range p {
				p[j] = math.Round(p[j]*8) / 8
			}
		case 2:
			p[0] = 1
		}
	}
	return pts
}

// fuzzSeed picks the query's preference vector: the explicit components
// (normalised when they are not already on the simplex), a simplex vertex,
// a point on a simplex edge, or a random interior point.
func fuzzSeed(mode uint8, d int, explicit []float64, rng *rand.Rand) geom.Vector {
	w := make(geom.Vector, d)
	switch mode % 4 {
	case 0:
		s := 0.0
		for j := range w {
			w[j] = math.Abs(explicit[j])
			s += w[j]
		}
		if geom.ValidatePreference(w, d) == nil {
			return w
		}
		if !(s > 0) || math.IsInf(s, 0) {
			return geom.RandSimplex(rng, d)
		}
		return w.Scale(1 / s)
	case 1:
		w[rng.Intn(d)] = 1
	case 2:
		a := rng.Intn(d)
		b := (a + 1 + rng.Intn(d-1)) % d
		t := []float64{0.5, 0.25, rng.Float64()}[rng.Intn(3)]
		w[a], w[b] = t, 1-t
	default:
		return geom.RandSimplex(rng, d)
	}
	return w
}

// requiredTopK returns the records in every top-k result at w: those
// scoring clearly above the (k+1)-th best score. Records tied at the
// boundary may or may not be chosen, so they are not required.
func requiredTopK(pts []geom.Vector, w geom.Vector, k int) []int {
	idx := make([]int, len(pts))
	sc := make([]float64, len(pts))
	for i, p := range pts {
		idx[i], sc[i] = i, p.Dot(w)
	}
	sort.Slice(idx, func(a, b int) bool { return sc[idx[a]] > sc[idx[b]] })
	if len(idx) <= k {
		return idx
	}
	cut := sc[idx[k]] + 1e-7
	var out []int
	for _, i := range idx[:k] {
		if sc[i] > cut {
			out = append(out, i)
		}
	}
	return out
}

// nearbySeeds samples preference vectors on the simplex within distance r
// of w (w itself first).
func nearbySeeds(rng *rand.Rand, w geom.Vector, r float64, count int) []geom.Vector {
	d := len(w)
	out := []geom.Vector{w}
	for tries := 0; len(out) < count && tries < 40*count; tries++ {
		u := make(geom.Vector, d)
		mean := 0.0
		for j := range u {
			u[j] = rng.NormFloat64()
			mean += u[j] / float64(d)
		}
		norm := 0.0
		for j := range u {
			u[j] -= mean
			norm += u[j] * u[j]
		}
		if norm < 1e-12 {
			continue
		}
		t := r * rng.Float64() / math.Sqrt(norm)
		v := make(geom.Vector, d)
		ok := true
		for j := range v {
			v[j] = w[j] + t*u[j]
			ok = ok && v[j] >= 0
		}
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// unionBelow counts the distinct records of the regions closer than rho.
func unionBelow(regions []TopKRegion, rho float64) int {
	seen := map[int]bool{}
	for _, reg := range regions {
		if reg.MinDist < rho {
			for _, r := range reg.TopK {
				seen[r.ID] = true
			}
		}
	}
	return len(seen)
}

// FuzzORU checks ORU against brute force on small inputs: every top-k of a
// preference sampled strictly inside the stopping radius is reported; the
// radius is minimal, both for ORU's own regions and for an exhaustive
// enumeration of every top-k region over the whole simplex; and, across
// random inserts and deletes, an answer drawn through a cache shared by
// every query of the current records equals a private-cache answer.
func FuzzORU(f *testing.F) {
	// The seed corpus lives in testdata/fuzz/FuzzORU. It holds the k = 1
	// instance whose rho-bar underestimate once dropped record 16 (ANTI,
	// n=150, d=3, data seed 41, k=1, m=8), degenerate data with simplex
	// vertex and edge seeds, and IND/COR inputs at d = 4.
	f.Fuzz(func(t *testing.T, shape, nb, db uint8, dataSeed int64, kb, mb, mode uint8, rngSeed int64, w0, w1, w2, w3 float64) {
		d := 2 + int(db)%3
		n := 1 + int(nb)%200
		k := 1 + int(kb)%4
		m := k + int(mb)%12
		rng := rand.New(rand.NewSource(rngSeed))
		pts := fuzzPoints(shape, n, d, dataSeed)
		w := fuzzSeed(mode, d, []float64{w0, w1, w2, w3}, rng)
		tree := rtree.BulkLoad(pts)

		// The oracle: every top-k region of the whole simplex, over the
		// k-skyband, in increasing distance from w.
		_, oracle, err := EnumerateWithin(skyband.KSkyband(tree, k), w, k, region.Full(d))
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}

		res, err := ORU(tree, w, k, m)
		if errors.Is(err, ErrInsufficientData) {
			if got := unionBelow(oracle, math.Inf(1)); got >= m {
				t.Fatalf("ORU reports insufficient data, but the simplex holds %d >= m = %d top-k records", got, m)
			}
			return
		}
		if err != nil {
			t.Fatalf("ORU: %v", err)
		}
		reported := idSet(res.Records)
		if len(reported) < m {
			t.Fatalf("ORU reported %d records, want at least m = %d", len(reported), m)
		}

		// Every top-k strictly inside the radius is reported.
		for _, v := range nearbySeeds(rng, w, res.Rho*(1-1e-6), 24) {
			for _, id := range requiredTopK(pts, v, k) {
				if !reported[id] {
					t.Fatalf("record %d is top-%d at %v (distance %g < rho %g) but not reported", id, k, v, geom.Vector(v).Dist(w), res.Rho)
				}
			}
		}

		// Minimality: regions closer than rho confirm fewer than m records.
		inner := res.Rho*(1-1e-6) - 1e-9
		if got := unionBelow(res.Regions, inner); got >= m {
			t.Fatalf("ORU's regions closer than rho = %g already hold %d >= m = %d records", res.Rho, got, m)
		}
		if got := unionBelow(oracle, inner); got >= m {
			t.Fatalf("the simplex's regions closer than rho = %g hold %d >= m = %d records", res.Rho, got, m)
		}

		// Mutations: a cache shared across queries of the current records
		// answers exactly like a private one.
		col, err := collection.FromPoints(pts)
		if err != nil {
			t.Fatal(err)
		}
		geo := NewGeoCache()
		for round := 0; round < 3; round++ {
			for q := 0; q < 3; q++ {
				v := fuzzSeed(uint8(1+rng.Intn(3)), d, nil, rng)
				kq := 1 + rng.Intn(k)
				shared, errS := ORUWith(col.Tree(), v, kq, m, ORUOptions{Cache: geo})
				private, errP := ORUWith(col.Tree(), v, kq, m, ORUOptions{})
				if !errors.Is(errS, errP) || !reflect.DeepEqual(shared, private) {
					t.Fatalf("round %d: shared-cache answer differs from private-cache answer at w=%v k=%d m=%d (errors %v / %v)", round, v, kq, m, errS, errP)
				}
			}
			for wr := 0; wr < 4; wr++ {
				if ids := col.IDs(); len(ids) > 1 && rng.Intn(2) == 0 {
					col.Delete(ids[rng.Intn(len(ids))])
				} else if err := col.Insert(col.NewID(), fuzzPoints(shape, 1, d, rng.Int63())[0]); err != nil {
					t.Fatal(err)
				}
				geo = NewGeoCache() // every write drops the cache, as ordu.Dataset does
			}
		}
	})
}

// ordFuzzPoints is fuzzPoints plus a fifth shape of coplanar records: the
// first d-1 coordinates on a 1/8 grid and the last one closing the sum to
// 1, so every record lies on the plane sum(x) = 1 and many tie in score.
func ordFuzzPoints(shape uint8, n, d int, seed int64) []geom.Vector {
	if shape%5 < 4 {
		return fuzzPoints(shape%5, n, d, seed)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		rest := 8
		for j := 0; j < d-1; j++ {
			c := rng.Intn(rest + 1)
			p[j] = float64(c) / 8
			rest -= c
		}
		p[d-1] = float64(rest) / 8
		pts[i] = p
	}
	return pts
}

// bruteRadii returns every record's inflection radius at w (Section 4.1)
// from pairwise mindists: the k-th largest mindist to the other records
// scoring at least as high at w, 0 with fewer than k of them, and +Inf
// when k of them dominate the record outright.
func bruteRadii(pts []geom.Vector, w geom.Vector, k int) []float64 {
	radii := make([]float64, len(pts))
	for i, p := range pts {
		var mds []float64
		for j, q := range pts {
			if j != i && q.Dot(w) >= p.Dot(w) {
				mds = append(mds, skyband.Mindist(w, p, q))
			}
		}
		if len(mds) < k {
			continue
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(mds)))
		radii[i] = mds[k-1]
	}
	return radii
}

// scanBefore is the score-ordered scan's total order on records (see
// skyband's Scanner.less): higher score at w, then larger coordinate
// sum, then lexicographically larger point, then smaller id.
func scanBefore(pts []geom.Vector, w geom.Vector, a, b int) bool {
	p, q := pts[a], pts[b]
	if sp, sq := p.Dot(w), q.Dot(w); sp != sq {
		return sp > sq
	}
	if sp, sq := p.Sum(), q.Sum(); sp != sq {
		return sp > sq
	}
	for j := range p {
		if p[j] != q[j] {
			return p[j] > q[j]
		}
	}
	return a < b
}

// FuzzORD checks ORD against brute-force inflection radii on small,
// degenerate inputs. ORD's tie rule (documented on cand.Less and shared
// with ORD-BSL) orders records by radius, then by the scan's order; its
// output must be the first m records of that order. ORD computes a radius
// against the records its scan fetched, brute force against all of them,
// so radii that are equal in exact arithmetic may differ in the last bits.
// A record therefore counts as missing only when its brute-force radius is
// clearly below a reported one, and the tie rule is checked on the ties
// that are exact by construction: radius 0 (fewer than k competitors with
// a positive mindist), and duplicate records.
func FuzzORD(f *testing.F) {
	// The seed corpus lives in testdata/fuzz/FuzzORD: each shape (IND,
	// ANTI, COR, duplicates/grid ties/shared face, coplanar) with simplex
	// vertex, edge and interior seeds, at d = 2 to 6.
	f.Fuzz(func(t *testing.T, shape, nb, db uint8, dataSeed int64, kb, mb, mode uint8, rngSeed int64, w0, w1, w2, w3 float64) {
		d := 2 + int(db)%5
		n := 1 + int(nb)%200
		k := 1 + int(kb)%4
		m := k + int(mb)%12
		rng := rand.New(rand.NewSource(rngSeed))
		pts := ordFuzzPoints(shape, n, d, dataSeed)
		explicit := make([]float64, d)
		copy(explicit, []float64{w0, w1, w2, w3})
		w := fuzzSeed(mode, d, explicit, rng)
		tree := rtree.BulkLoad(pts)

		radii := bruteRadii(pts, w, k)
		finite := 0
		for _, r := range radii {
			if !math.IsInf(r, 1) {
				finite++
			}
		}
		res, err := ORD(tree, w, k, m)
		if errors.Is(err, ErrInsufficientData) {
			if finite >= m {
				t.Fatalf("ORD reports insufficient data, but %d >= m = %d records have a finite radius", finite, m)
			}
			return
		}
		if err != nil {
			t.Fatalf("ORD: %v", err)
		}
		if finite < m {
			t.Fatalf("ORD answered, but only %d < m = %d records have a finite radius", finite, m)
		}
		if len(res.Records) != m || len(res.Radii) != m {
			t.Fatalf("ORD returned %d records and %d radii, want m = %d", len(res.Records), len(res.Radii), m)
		}

		// The brute-force order under ORD's tie rule.
		before := func(a, b int) bool {
			if radii[a] != radii[b] {
				return radii[a] < radii[b]
			}
			return scanBefore(pts, w, a, b)
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return before(order[a], order[b]) })
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
		if !near(res.Rho, radii[order[m-1]]) || res.Rho != res.Radii[m-1] {
			t.Fatalf("rho = %g (last radius %g), brute force %g", res.Rho, res.Radii[m-1], radii[order[m-1]])
		}
		in := make(map[int]bool, m)
		for i, r := range res.Records {
			if in[r.ID] {
				t.Fatalf("record %d reported twice", r.ID)
			}
			in[r.ID] = true
			if !near(res.Radii[i], radii[r.ID]) {
				t.Fatalf("record %d: ORD radius %g, brute force %g", r.ID, res.Radii[i], radii[r.ID])
			}
			if i > 0 && res.Radii[i] < res.Radii[i-1] {
				t.Fatalf("radii out of order at %d: %g after %g", i, res.Radii[i], res.Radii[i-1])
			}
		}
		for _, x := range order {
			if in[x] {
				continue
			}
			for id := range in {
				if radii[x] < radii[id] && !near(radii[x], radii[id]) {
					t.Fatalf("record %d (radius %g) is missing, but record %d (radius %g) is reported", x, radii[x], id, radii[id])
				}
				// Radius 0 is exact on both sides: ORD's competitors are a
				// subset of brute force's, so its radius is never larger.
				exact := radii[x] == 0 && radii[id] == 0 || pts[x].Equal(pts[id])
				if exact && scanBefore(pts, w, x, id) {
					t.Fatalf("tie at radius %g: record %d is reported, but record %d, which the tie rule puts first, is not", radii[x], id, x)
				}
			}
		}
	})
}
