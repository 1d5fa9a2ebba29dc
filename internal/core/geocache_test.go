package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/hull"
	"ordu/internal/rtree"
)

// cacheSizes reports the entry counts of c.
func cacheSizes(c *GeoCache) (hulls, bands int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.hulls), len(c.bands)
}

// TestORURestartsWhenRhoExceedsEstimate pins the k = 1 instance on which
// exploration completed at rho = 0.2122, beyond the estimate rho-bar =
// 0.1654 that cut the candidates, and so missed record 16 — top-1 at
// distance 0.178. ORU and ORU-BSL must restart with a larger estimate.
func TestORURestartsWhenRhoExceedsEstimate(t *testing.T) {
	tree := rtree.BulkLoad(data.Synthetic(data.ANTI, 150, 3, 41))
	w := geom.Vector{0.3767, 0.3157, 0.3076}
	const k, m = 1, 8
	rhoBar, exhausted, _, err := estimateRhoBar(context.Background(), tree, w, m)
	if err != nil || exhausted || rhoBar > 0.17 {
		t.Fatalf("first estimate = %g (exhausted %v, err %v); the instance needs a finite underestimate", rhoBar, exhausted, err)
	}
	res, err := ORU(tree, w, k, m)
	if err != nil {
		t.Fatal(err)
	}
	bsl, err := ORUBSL(tree, w, k, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*ORUResult{"ORU": res, "ORU-BSL": bsl} {
		if !idSet(r.Records)[16] {
			t.Errorf("%s misses record 16 (rho %g)", name, r.Rho)
		}
		if math.Abs(r.Rho-0.178282) > 1e-5 {
			t.Errorf("%s rho = %g, want 0.178282", name, r.Rho)
		}
	}
	if !reflect.DeepEqual(idSet(res.Records), idSet(bsl.Records)) {
		t.Errorf("ORU records %v != ORU-BSL records %v", idSet(res.Records), idSet(bsl.Records))
	}
}

// TestGeoCacheSharedMatchesPrivate runs one cache through many seeds and k
// values and compares every answer — records, rho, regions and stats —
// with a private-cache run. The ANTI shape exhausts the
// rho-bar estimate, so the cached k-skyband layers are exercised too.
func TestGeoCacheSharedMatchesPrivate(t *testing.T) {
	shapes := []struct {
		dist    data.Distribution
		n, d, m int
	}{
		{data.ANTI, 1000, 3, 20},
		{data.IND, 3000, 4, 10},
	}
	for _, sh := range shapes {
		tree := rtree.BulkLoad(data.Synthetic(sh.dist, sh.n, sh.d, 3))
		geo := NewGeoCache()
		rng := rand.New(rand.NewSource(11))
		for q := 0; q < 12; q++ {
			w := geom.RandSimplex(rng, sh.d)
			k := 2 + q%3
			shared, errS := ORUWith(tree, w, k, sh.m, ORUOptions{Cache: geo})
			private, errP := ORU(tree, w, k, sh.m)
			if errS != nil || errP != nil {
				t.Fatalf("%s q=%d: errors %v / %v", sh.dist, q, errS, errP)
			}
			if !reflect.DeepEqual(shared, private) {
				t.Fatalf("%s q=%d w=%v k=%d: shared-cache answer differs", sh.dist, q, w, k)
			}
		}
		hulls, bands := cacheSizes(geo)
		if hulls == 0 {
			t.Errorf("%s: no hull was cached", sh.dist)
		}
		t.Logf("%s: %d hulls, %d k-skyband entries", sh.dist, hulls, bands)
		if sh.dist == data.ANTI && bands == 0 {
			t.Errorf("ANTI: the rho-bar estimate never ran dry, so no k-skyband was cached")
		}
	}
}

// TestGeoCacheCaps cycles more k values and seeds through one cache than
// its caps admit, and overfills the hull map directly.
func TestGeoCacheCaps(t *testing.T) {
	tree := rtree.BulkLoad(data.Synthetic(data.ANTI, 300, 3, 5))
	geo := NewGeoCache()
	rng := rand.New(rand.NewSource(2))
	for k := 1; k <= maxCachedBands+4; k++ {
		for q := 0; q < 2; q++ {
			w := geom.RandSimplex(rng, 3)
			if _, err := ORUWith(tree, w, k, 20, ORUOptions{Cache: geo}); err != nil && err != ErrInsufficientData {
				t.Fatal(err)
			}
			if hulls, bands := cacheSizes(geo); hulls > maxCachedHulls || bands > maxCachedBands {
				t.Fatalf("k=%d: cache holds %d hulls and %d k-skybands, caps %d and %d", k, hulls, bands, maxCachedHulls, maxCachedBands)
			}
		}
	}
	if _, bands := cacheSizes(geo); bands == 0 {
		t.Fatal("no k-skyband was cached: the estimate never ran dry")
	}

	snap := &hull.AdjSnapshot{MemberIDs: []int{1}}
	var key []byte
	for i := 0; i < 2*maxCachedHulls+3; i++ {
		key = appendHullKey(key[:0], []int{i, i + 1})
		if got := geo.putHull(key, snap); got != snap {
			t.Fatalf("insert %d: putHull returned another entry", i)
		}
		if geo.hull(key) != snap {
			t.Fatalf("insert %d: the entry just published is missing", i)
		}
		if hulls, _ := cacheSizes(geo); hulls > maxCachedHulls {
			t.Fatalf("insert %d: %d hulls cached, cap %d", i, hulls, maxCachedHulls)
		}
	}
}

// TestGeoCacheFirstInsertWins: a second publish under the same key keeps
// and returns the first entry.
func TestGeoCacheFirstInsertWins(t *testing.T) {
	geo := NewGeoCache()
	key := appendHullKey(nil, []int{3, 7, 9})
	a, b := &hull.AdjSnapshot{}, &hull.AdjSnapshot{}
	if geo.putHull(key, a) != a || geo.putHull(key, b) != a || geo.hull(key) != a {
		t.Fatal("the first published hull must win")
	}
	ea, eb := &bandEntry{size: 1}, &bandEntry{size: 1}
	if geo.putBand(2, ea) != ea || geo.putBand(2, eb) != ea || geo.band(2) != ea {
		t.Fatal("the first published k-skyband must win")
	}
}

// TestHullKeyDistinct: distinct id sets never share a key.
func TestHullKeyDistinct(t *testing.T) {
	sets := [][]int{{}, {0}, {1}, {0, 1}, {1, 0}, {128}, {1, 28}, {-1}, {300, 5}, {3, 005, 0}}
	seen := map[string]string{}
	for _, s := range sets {
		k := string(appendHullKey(nil, s))
		if prev, dup := seen[k]; dup {
			t.Fatalf("sets %s and %v share a key", prev, s)
		}
		seen[k] = fmt.Sprint(s)
	}
}
