package core

import (
	"encoding/binary"
	"sync"

	"ordu/internal/geom"
	"ordu/internal/hull"
	"ordu/internal/skyband"
)

// Caps on a GeoCache's entry counts. A full map is emptied before the next
// insert: entries are cheap to rebuild, and emptying keeps the bound hard
// without eviction bookkeeping.
const (
	maxCachedHulls = 4096 // L_upd hulls, each a few KB
	maxCachedBands = 8    // k-skyband layer sets, one per k
)

// GeoCache memoises the parts of ORU's geometry that depend on the dataset
// and k but not on the seed:
//
//   - the L_upd upper hull (members and adjacency) of each candidate-id set
//     that Theorem-1 partitioning builds a hull for, and
//   - for each k, the k-skyband size and its upper-hull layers, which are
//     ORU's candidates whenever the rho-bar estimate is exhausted.
//
// Both are deterministic functions of their key for a fixed dataset state
// (hull insertion follows sorted ids and the hull's jitter is keyed by
// coordinates), so a cached answer is byte-identical to an uncached one.
// A GeoCache therefore belongs to one dataset state: its owner must replace
// it whenever the indexed records change. It is safe for concurrent use;
// entries are immutable once published, except the lazily peeled layers,
// which their own lock guards. The zero value is ready for use.
type GeoCache struct {
	mu    sync.Mutex
	hulls map[string]*hull.AdjSnapshot
	bands map[int]*bandEntry
}

// bandEntry is the cached k-skyband of one k.
type bandEntry struct {
	size   int // candidate count, part of Stats.Fetched
	layers *layerSet
}

// NewGeoCache returns an empty cache.
func NewGeoCache() *GeoCache { return &GeoCache{} }

// hull returns the cached L_upd hull for the encoded candidate set, or nil.
func (c *GeoCache) hull(key []byte) *hull.AdjSnapshot {
	c.mu.Lock()
	s := c.hulls[string(key)]
	c.mu.Unlock()
	return s
}

// putHull publishes a hull built outside the lock and returns the entry now
// cached under key: the earlier one when another query got there first.
func (c *GeoCache) putHull(key []byte, s *hull.AdjSnapshot) *hull.AdjSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.hulls[string(key)]; old != nil {
		return old
	}
	if c.hulls == nil {
		c.hulls = make(map[string]*hull.AdjSnapshot)
	} else if len(c.hulls) >= maxCachedHulls {
		clear(c.hulls)
	}
	c.hulls[string(key)] = s
	return s
}

// band returns the cached k-skyband entry for k, or nil.
func (c *GeoCache) band(k int) *bandEntry {
	c.mu.Lock()
	b := c.bands[k]
	c.mu.Unlock()
	return b
}

// putBand publishes a k-skyband entry and returns the one now cached for k.
func (c *GeoCache) putBand(k int, b *bandEntry) *bandEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.bands[k]; old != nil {
		return old
	}
	if c.bands == nil {
		c.bands = make(map[int]*bandEntry)
	} else if len(c.bands) >= maxCachedBands {
		clear(c.bands)
	}
	c.bands[k] = b
	return b
}

// appendHullKey appends the cache key of a sorted candidate-id set.
// Varints are self-delimiting, so distinct sets get distinct keys.
//
//ordlint:noalloc
func appendHullKey(key []byte, ids []int) []byte {
	for _, id := range ids {
		key = binary.AppendVarint(key, int64(id)) //ordlint:allow noalloc — scratch growth, amortised across partitions
	}
	return key
}

// layerSet is a lazily peeled hull.Layers that several queries may share:
// every peeling access holds its lock. Point reads go straight to the immutable point map.
type layerSet struct {
	mu sync.Mutex
	ls *hull.Layers
}

// newLayerSet prepares lazy layers over the candidate records.
func newLayerSet(cands []skyband.Member) *layerSet {
	ids := make([]int, len(cands))
	pts := make([]geom.Vector, len(cands))
	for i, c := range cands {
		ids[i] = c.ID
		pts[i] = c.Point
	}
	return &layerSet{ls: hull.NewLayers(ids, pts)}
}

// layerView is one query's access to a layerSet. It records how many layers
// the query needed — what a private, lazily peeled hull.Layers would have
// computed — so Stats.LayersComputed does not depend on what other queries
// already peeled.
type layerView struct {
	set  *layerSet
	need int // guarded by set.mu
}

// Layer returns layer t (0-based), or nil when fewer than t+1 layers exist.
func (v *layerView) Layer(t int) *hull.Upper {
	v.set.mu.Lock()
	defer v.set.mu.Unlock()
	u := v.set.ls.Layer(t)
	n := t + 1
	if u == nil {
		n = v.set.ls.Computed() // every layer is peeled by now
	}
	v.need = max(v.need, n)
	return u
}

// LayerOf returns the layer index of id; ok is false for unknown ids.
func (v *layerView) LayerOf(id int) (int, bool) {
	v.set.mu.Lock()
	defer v.set.mu.Unlock()
	li, ok := v.set.ls.LayerOf(id)
	if ok {
		v.need = max(v.need, li+1)
	}
	return li, ok
}

// Point returns the coordinates of a record.
func (v *layerView) Point(id int) geom.Vector { return v.set.ls.Point(id) }

// computed returns the number of layers this query needed.
func (v *layerView) computed() int {
	v.set.mu.Lock()
	defer v.set.mu.Unlock()
	return v.need
}
