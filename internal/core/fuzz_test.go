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
