package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"ordu/internal/data"
	"ordu/internal/server"
)

// Load shape shared by every workload.
const (
	conns       = 2 // client connections, matching server Workers
	workers     = 2 // server.Config.Workers; QueueDepth and CacheSize keep their defaults
	datasetName = "bench"
	// warmup is how long, at the offered rate, the closed-loop requests
	// before the latency phase last; they are checked but not timed.
	warmup = time.Second

	// gridUnits is the seed grid: components are multiples of 1/gridUnits,
	// the server's 1e-4 cache-key quantum.
	gridUnits = 10000
	// reservedBase is the first id the write mix inserts; ids below it are
	// the dataset's original records.
	reservedBase = 1 << 20
)

// workload is one traffic mix against one dataset.
type workload struct {
	name string

	dist     data.Distribution
	n, d     int
	dataSeed int64 // the dataset is fixed; --seed drives the request stream

	ordFrac, oruFrac float64 // the rest of the stream is point writes
	ordK, ordM       int
	oruK, oruM       int
	// zipfPool > 0 draws query seeds Zipf-distributed from a pool of that
	// many grid seeds; 0 means seeds never repeat.
	zipfPool int

	// rate is the frozen open-loop offered rate (req/s): about half the
	// closed-loop saturation measured once on commit 6528c62 (2-core Xeon,
	// GOMAXPROCS=2). It is a constant so that a faster program faces the
	// same load.
	rate float64
	// checkStride selects the latency-phase reads compared against the
	// facade on a mirror dataset: every stride-th stream index. Zero on a
	// write workload, whose reads race with writes and are checked for
	// invariants instead.
	checkStride int
	// tracePrefix is how many stream requests the traced run replays.
	tracePrefix int
}

// Why each workload exists is in README.md and BENCHMARK.json.
var workloads = []workload{
	{
		name: "ord-read",
		dist: data.IND, n: 100000, d: 4, dataSeed: 1,
		ordFrac: 1, ordK: 5, ordM: 30,
		rate: 450, checkStride: 4, tracePrefix: 1000,
	},
	{
		name: "oru-read",
		dist: data.ANTI, n: 50000, d: 3, dataSeed: 1,
		oruFrac: 1, oruK: 5, oruM: 20,
		rate: 18, checkStride: 8, tracePrefix: 80,
	},
	{
		name: "mixed-write",
		dist: data.IND, n: 100000, d: 4, dataSeed: 1,
		ordFrac: 0.6, oruFrac: 0.3, ordK: 5, ordM: 30, oruK: 3, oruM: 10,
		zipfPool: 1024, rate: 130, tracePrefix: 800,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// class is a request's traffic class.
type class uint8

const (
	classORD class = iota
	classORU
	classInsert // a reserved id that is not live yet
	classUpsert // an original id, updated in place
	classDelete // a reserved id inserted earlier in the stream
)

var classNames = [...]string{"ord", "oru", "insert", "upsert", "delete"}

func (c class) String() string { return classNames[c] }
func (c class) isRead() bool   { return c == classORD || c == classORU }

// request is one generated request together with its wire form.
type request struct {
	class class
	w     []float64 // queries
	k, m  int
	id    int       // writes
	point []float64 // inserts and upserts
	// dep is the stream index of the insert a delete must follow (-1 when
	// none): the driver holds the delete until that insert has completed,
	// so the final dataset does not depend on timing.
	dep int

	method, path string
	body         []byte
}

// stream is a deterministic request sequence derived from a seed.
type stream struct {
	reqs   []request
	digest string // sha256 over every request's method, path and body
}

// gridSeed maps d-1 uniforms in [0,1) to a preference vector on the 1e-4
// grid: sorted, the uniforms' spacings are uniform on the unit simplex.
// The first d-1 components are rounded to whole grid units and the last
// takes the rest of gridUnits, so the components sum to exactly 1 in
// units. Rounding each component separately would miss the sum by up to
// d/2 units, far outside the server's |sum-1| <= 1e-6 check. ok is false
// when the rounding overshoots; the caller draws again.
func gridSeed(u []float64) (units []int, w []float64, ok bool) {
	d := len(u) + 1
	cuts := append(append([]float64{0}, u...), 1)
	sort.Float64s(cuts)
	units = make([]int, d)
	rest := gridUnits
	for j := 0; j < d-1; j++ {
		units[j] = int(math.Round((cuts[j+1] - cuts[j]) * gridUnits))
		rest -= units[j]
	}
	if rest < 0 {
		return nil, nil, false
	}
	units[d-1] = rest
	w = make([]float64, d)
	for j, x := range units {
		w[j] = float64(x) / gridUnits
	}
	return units, w, true
}

// halton is a randomly shifted Halton sequence in [0,1)^dims. Each point is
// uniform, but a run's points cover the cube evenly, so the mix of cheap
// and costly seeds, and with it the median latency, varies far less
// between stream seeds than with independent draws.
type halton struct {
	i     int
	shift []float64
}

var haltonBases = [...]int{2, 3, 5, 7, 11, 13, 17, 19}

func (h *halton) next() []float64 {
	h.i++
	u := make([]float64, len(h.shift))
	for j := range u {
		base, f, x := haltonBases[j], 1.0, 0.0
		for i := h.i; i > 0; i /= base {
			f /= float64(base)
			x += f * float64(i%base)
		}
		u[j] = math.Mod(x+h.shift[j], 1)
	}
	return u
}

func uniforms(rng *rand.Rand, n int) []float64 {
	u := make([]float64, n)
	for j := range u {
		u[j] = rng.Float64()
	}
	return u
}

// seedSource hands out query seeds: distinct grid seeds from a shifted
// Halton sequence, or Zipf draws from a fixed pool.
type seedSource struct {
	seen map[string]bool
	seq  *halton
	pool [][]float64
	zipf *rand.Zipf
}

// The pool is a fixed population of preferences, drawn from poolSeed like
// the dataset itself; the stream's rng decides which of them arrive when.
func newSeedSource(rng *rand.Rand, d, pool int, poolSeed int64) *seedSource {
	s := &seedSource{seen: make(map[string]bool), seq: &halton{shift: uniforms(rng, d-1)}}
	prng := rand.New(rand.NewSource(poolSeed))
	for len(s.pool) < pool {
		s.pool = append(s.pool, s.distinct(func() []float64 { return uniforms(prng, d-1) }))
	}
	if pool > 0 {
		// P(rank r) is proportional to (64+r)^-1.1: a popular head that
		// keeps about a fifth of queries in the 256-entry cache, so the
		// median request is a computed one and a hit-rate swing moves it
		// little.
		s.zipf = rand.NewZipf(rng, 1.1, 64, uint64(pool-1))
	}
	return s
}

// distinct returns a grid seed, built from draw, never returned before.
func (s *seedSource) distinct(draw func() []float64) []float64 {
	for {
		units, w, ok := gridSeed(draw())
		key := fmt.Sprint(units)
		if ok && !s.seen[key] {
			s.seen[key] = true
			return w
		}
	}
}

func (s *seedSource) next() []float64 {
	if s.zipf != nil {
		return s.pool[s.zipf.Uint64()]
	}
	return s.distinct(s.seq.next)
}

// genStream builds count requests for the workload from seed. The same
// arguments give a byte-identical stream.
func genStream(wl workload, seed int64, count int) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	seeds := newSeedSource(rng, wl.d, wl.zipfPool, wl.dataSeed)
	var (
		pending  []int // stream indices of inserts not yet deleted, oldest first
		nextRes  = reservedBase
		upserted = make(map[int]bool)
	)
	reqs := make([]request, 0, count)
	var block []class
	for i := 0; i < count; i++ {
		if len(block) == 0 {
			block = mixBlock(rng, wl)
		}
		r := request{class: block[0], dep: -1}
		block = block[1:]
		switch r.class {
		case classORD:
			r.k, r.m, r.w = wl.ordK, wl.ordM, seeds.next()
		case classORU:
			r.k, r.m, r.w = wl.oruK, wl.oruM, seeds.next()
		default:
			// Half upserts of original ids, half inserts and deletes of
			// reserved ids. Each original id is written at most once and a
			// delete follows its insert by at least conns positions, so no
			// two writes to one id race.
			v := rng.Float64()
			canDelete := len(pending) > 0 && i-pending[0] >= conns
			switch {
			case v < 0.5:
				r.class = classUpsert
				for {
					r.id = rng.Intn(wl.n)
					if !upserted[r.id] {
						upserted[r.id] = true
						break
					}
				}
				r.point = randPoint(rng, wl.d)
			case v < 0.75 || !canDelete:
				r.class, r.id, r.point = classInsert, nextRes, randPoint(rng, wl.d)
				nextRes++
				pending = append(pending, i)
			default:
				r.class, r.dep = classDelete, pending[0]
				r.id = reqs[pending[0]].id
				pending = pending[1:]
			}
		}
		if err := r.encode(); err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
	}
	return &stream{reqs: reqs, digest: digest(reqs)}, nil
}

// mixBlock returns the next mixBlockLen request classes: the workload's
// exact mix in random order, so the mix does not drift between stream
// seeds. Writes are marked classUpsert here; genStream picks the kind.
const mixBlockLen = 30

func mixBlock(rng *rand.Rand, wl workload) []class {
	nORD := int(math.Round(wl.ordFrac * mixBlockLen))
	nORU := int(math.Round(wl.oruFrac * mixBlockLen))
	block := make([]class, mixBlockLen)
	for j := range block {
		switch {
		case j < nORD:
			block[j] = classORD
		case j < nORD+nORU:
			block[j] = classORU
		default:
			block[j] = classUpsert
		}
	}
	rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	return block
}

func randPoint(rng *rand.Rand, d int) []float64 {
	p := make([]float64, d)
	for j := range p {
		p[j] = rng.Float64()
	}
	return p
}

// encode fills the request's wire form. Query bodies carry no workers
// field, like cmd/ordload and the facade default.
func (r *request) encode() error {
	var err error
	switch r.class {
	case classORD, classORU:
		r.method, r.path = "POST", "/query/"+r.class.String()
		r.body, err = json.Marshal(server.QueryRequest{Dataset: datasetName, W: r.w, K: r.k, M: r.m})
	case classInsert, classUpsert:
		id := r.id
		r.method, r.path = "POST", "/datasets/"+datasetName+"/points"
		r.body, err = json.Marshal(server.PointWriteRequest{ID: &id, Point: r.point})
	case classDelete:
		r.method, r.path = "DELETE", "/datasets/"+datasetName+"/points/"+strconv.Itoa(r.id)
	}
	return err
}

func digest(reqs []request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%s %s %d\n", r.method, r.path, len(r.body))
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
