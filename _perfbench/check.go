package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ordu"
	"ordu/internal/core"
	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/server"
)

// answer is the part of an ORD/ORU answer the gate compares: the id set
// and the stopping radius. Record order beyond what the operator defines,
// scores and the JSON bytes are deliberately ignored.
type answer struct {
	ids     []int
	rho     float64
	radii   []float64 // ORD only
	regions []region  // ORU responses only
}

// region is one finalized ORU region: its top-k ids and distance from the
// seed, in finalization order.
type region struct {
	ids     []int
	minDist float64
}

// sameAnswer applies the repository's parity rule (TestORDMatchesBSL,
// TestParallelORUMatchesSequential): equal id sets and rho within 1e-9,
// relative for radii above 1.
func sameAnswer(got, want answer) error {
	if !closeRho(got.rho, want.rho, 1e-9) {
		return fmt.Errorf("rho %v, want %v", got.rho, want.rho)
	}
	if !sameIDs(got.ids, want.ids) {
		return fmt.Errorf("ids %v, want %v", sorted(got.ids), sorted(want.ids))
	}
	return nil
}

func closeRho(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

func sorted(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

// subset reports whether every id of a is in b.
func subset(a, b []int) bool {
	in := make(map[int]bool, len(b))
	for _, id := range b {
		in[id] = true
	}
	for _, id := range a {
		if !in[id] {
			return false
		}
	}
	return true
}

// decodeAnswer extracts the compared fields from a query response body.
func decodeAnswer(body []byte) (answer, error) {
	type record struct {
		ID     int      `json:"id"`
		Radius *float64 `json:"radius"`
	}
	var resp struct {
		Rho     float64  `json:"rho"`
		Records []record `json:"records"`
		Regions []struct {
			TopK    []record `json:"topk"`
			MinDist float64  `json:"min_dist"`
		} `json:"regions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return answer{}, fmt.Errorf("decode response: %w", err)
	}
	a := answer{rho: resp.Rho}
	for _, r := range resp.Records {
		a.ids = append(a.ids, r.ID)
		if r.Radius != nil {
			a.radii = append(a.radii, *r.Radius)
		}
	}
	for _, reg := range resp.Regions {
		rg := region{minDist: reg.MinDist}
		for _, r := range reg.TopK {
			rg.ids = append(rg.ids, r.ID)
		}
		a.regions = append(a.regions, rg)
	}
	return a, nil
}

// checkShape checks the invariants every answer satisfies, even one that
// raced with writes. ORD: exactly m distinct records, radii that never
// decrease, and rho equal to the last radius. ORU: rho is the smallest
// radius at which m records qualify, so the records first confirmed by
// regions closer than rho number fewer than m and the answer holds at
// least m. That is exactly m in general position; records tied at rho (a
// simplex vertex where clipped attributes tie, say) may all enter at once.
func checkShape(q *request, a answer) error {
	seen := make(map[int]bool, len(a.ids))
	for _, id := range a.ids {
		if seen[id] {
			return fmt.Errorf("id %d repeated", id)
		}
		seen[id] = true
	}
	if q.class == classORU {
		return checkORUShape(q, a, seen)
	}
	if len(a.ids) != q.m {
		return fmt.Errorf("%d records, want m=%d", len(a.ids), q.m)
	}
	if len(a.radii) != len(a.ids) {
		return fmt.Errorf("%d radii for %d records", len(a.radii), len(a.ids))
	}
	for i := 1; i < len(a.radii); i++ {
		if a.radii[i] < a.radii[i-1] {
			return fmt.Errorf("radius %d (%v) below radius %d (%v)", i, a.radii[i], i-1, a.radii[i-1])
		}
	}
	// The wire rho is the last radius by definition and the JSON round trip
	// is exact, so the comparison is exact too.
	if a.rho != a.radii[len(a.radii)-1] { //ordlint:allow floatcmp — definitional identity of two copies of one float
		return fmt.Errorf("rho %v is not the last radius %v", a.rho, a.radii[len(a.radii)-1])
	}
	return nil
}

func checkORUShape(q *request, a answer, records map[int]bool) error {
	if len(a.ids) < q.m {
		return fmt.Errorf("%d records, want at least m=%d", len(a.ids), q.m)
	}
	if len(a.regions) == 0 || a.regions[len(a.regions)-1].minDist != a.rho { //ordlint:allow floatcmp — rho is the last region's distance by definition
		return fmt.Errorf("rho %v is not the last region's distance", a.rho)
	}
	inRegions := make(map[int]bool, len(a.ids))
	below := make(map[int]bool, len(a.ids))
	for _, rg := range a.regions {
		if rg.minDist > a.rho {
			return fmt.Errorf("region at distance %v beyond rho %v", rg.minDist, a.rho)
		}
		for _, id := range rg.ids {
			inRegions[id] = true
			if rg.minDist < a.rho {
				below[id] = true
			}
		}
	}
	if len(inRegions) != len(records) || !subset(a.ids, keys(inRegions)) {
		return fmt.Errorf("records %v are not the union of the regions' top-k", sorted(a.ids))
	}
	if len(below) >= q.m {
		return fmt.Errorf("%d records qualify below rho %v already, so rho is not minimal for m=%d", len(below), a.rho, q.m)
	}
	return nil
}

func keys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	return out
}

// facadeAnswer answers a query on a dataset through the ordu facade and
// the server's wire conversion, the way the handler does, and decodes it
// like a served answer.
func facadeAnswer(ds *ordu.Dataset, q *request) (answer, error) {
	var resp *server.QueryResponse
	if q.class == classORD {
		res, err := ds.ORD(q.w, q.k, q.m)
		if err != nil {
			return answer{}, fmt.Errorf("facade ORD: %w", err)
		}
		resp = server.NewORDResponse(res)
	} else {
		res, err := ds.ORU(q.w, q.k, q.m)
		if err != nil {
			return answer{}, fmt.Errorf("facade ORU: %w", err)
		}
		resp = server.NewORUResponse(res)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return answer{}, fmt.Errorf("encode facade answer: %w", err)
	}
	return decodeAnswer(body)
}

// gate collects correctness findings. Every mismatch is a defect of the
// program under test and fails the run.
type gate struct {
	mu       sync.Mutex
	checked  int
	findings []string
	noOracle int // oracle queries ORUBSL could not answer
}

func (g *gate) pass() {
	g.mu.Lock()
	g.checked++
	g.mu.Unlock()
}

func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	g.checked++
	g.findings = append(g.findings, fmt.Sprintf(format, args...))
	g.mu.Unlock()
}

func (g *gate) ok() bool { return len(g.findings) == 0 }

// checkAgainstMirror compares the selected served answers with the facade
// on a mirror dataset, two at a time.
func (g *gate) checkAgainstMirror(mirror *ordu.Dataset, st *stream, outs []outcome, idx []int) {
	var wg sync.WaitGroup
	next := make(chan int)
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				q := &st.reqs[i]
				got, err := decodeAnswer(outs[i].body)
				if err != nil {
					g.fail("request %d: %v", i, err)
					continue
				}
				want, err := facadeAnswer(mirror, q)
				if err != nil {
					g.fail("request %d: mirror %s: %v", i, q.class, err)
					continue
				}
				if err := sameAnswer(got, want); err != nil {
					g.fail("request %d (%s w=%v k=%d m=%d): served answer differs from the facade: %v", i, q.class, q.w, q.k, q.m, err)
					continue
				}
				g.pass()
			}
		}()
	}
	for _, i := range idx {
		next <- i
	}
	close(next)
	wg.Wait()
}

// liveness records, per reserved id, when the client sent its insert and
// when its delete came back, to check that a racing read only returns ids
// that were live at some point during the read.
type liveness struct {
	inserted map[int]time.Time // id -> insert sent
	deleted  map[int]time.Time // id -> delete done
	n        int               // ids below n are original records, never deleted
}

func newLiveness(st *stream, outs []outcome, n int) *liveness {
	lv := &liveness{inserted: make(map[int]time.Time), deleted: make(map[int]time.Time), n: n}
	for i, q := range st.reqs {
		o := &outs[i]
		if !o.issued || !o.ok() {
			continue
		}
		switch q.class {
		case classInsert:
			lv.inserted[q.id] = o.sent
		case classDelete:
			lv.deleted[q.id] = o.done
		}
	}
	return lv
}

// liveDuring reports whether id can have been live between sent and done.
func (lv *liveness) liveDuring(id int, sent, done time.Time) bool {
	if id >= 0 && id < lv.n {
		return true
	}
	ins, ok := lv.inserted[id]
	if !ok || !ins.Before(done) {
		return false
	}
	del, gone := lv.deleted[id]
	return !gone || del.After(sent)
}

// applyWrites replays the issued writes onto a mirror in stream order. The
// stream writes each id at most once (a delete after its insert), so the
// result does not depend on the order the server applied them in.
func applyWrites(mirror *ordu.Dataset, st *stream, outs []outcome) error {
	for i := range st.reqs {
		q := &st.reqs[i]
		if !outs[i].issued || q.class.isRead() {
			continue
		}
		if err := applyWrite(mirror, q); err != nil {
			return fmt.Errorf("mirror write %d: %w", i, err)
		}
	}
	return nil
}

func applyWrite(ds *ordu.Dataset, q *request) error {
	switch q.class {
	case classInsert, classUpsert:
		_, err := ds.Upsert(q.id, q.point)
		return err
	case classDelete:
		if !ds.Delete(q.id) {
			return fmt.Errorf("delete of absent id %d", q.id)
		}
	}
	return nil
}

// oracleFixture runs small ORD/ORU queries through the HTTP path of a
// fresh server and checks them against the brute-force baselines: ORD ids
// within core.ORDBSL's with equal rho, ORU ids within core.ORUBSL's with
// rho within 1e-7 (TestORUMatchesBSLOnSmallInputs), and ORU against the
// sampled-preference top-k reference of TestORUMatchesSampledReference.
func (g *gate) oracleFixture(seed int64) error {
	const (
		n, d    = 150, 3
		queries = 4
		samples = 2000
	)
	srv := server.New(server.Config{Workers: workers})
	ls, err := startServer(srv)
	if err != nil {
		return err
	}
	defer ls.stop()
	spec, _ := json.Marshal(server.DatasetRequest{Name: "oracle",
		Generator: &server.GeneratorSpec{Dist: "ANTI", N: n, D: d, Seed: seed}})
	if status, body, err := ls.call("POST", "/datasets", spec); err != nil || status != 201 {
		return fmt.Errorf("register oracle dataset: status %d %s %v", status, body, err)
	}
	pts := data.Synthetic(data.ANTI, n, d, seed)
	tree := rtree.BulkLoad(pts)

	rng := rand.New(rand.NewSource(seed))
	seeds := &seedSource{seen: make(map[string]bool)}
	for qi := 0; qi < queries; qi++ {
		w := seeds.distinct(func() []float64 { return uniforms(rng, d-1) })
		k := 1 + qi%3
		m := k + 7
		for _, op := range []class{classORD, classORU} {
			q := &request{class: op, w: w, k: k, m: m, dep: -1}
			body, _ := json.Marshal(server.QueryRequest{Dataset: "oracle", W: w, K: k, M: m})
			status, reply, err := ls.call("POST", "/query/"+op.String(), body)
			if err != nil || status != 200 {
				g.fail("oracle %s w=%v k=%d m=%d: status %d %s %v", op, w, k, m, status, reply, err)
				continue
			}
			got, err := decodeAnswer(reply)
			if err != nil {
				g.fail("oracle %s: %v", op, err)
				continue
			}
			if err := checkShape(q, got); err != nil {
				g.fail("oracle %s w=%v: %v", op, w, err)
				continue
			}
			if op == classORD {
				bsl, err := core.ORDBSL(tree, w, k, m)
				if err != nil {
					g.fail("oracle ORDBSL: %v", err)
					continue
				}
				if !subset(got.ids, recordIDs(bsl.Records)) || !closeRho(got.rho, bsl.Rho, 1e-9) {
					g.fail("oracle ORD w=%v k=%d m=%d: ids %v rho %v, ORDBSL ids %v rho %v",
						w, k, m, sorted(got.ids), got.rho, sorted(recordIDs(bsl.Records)), bsl.Rho)
					continue
				}
				g.pass()
				continue
			}
			// ORUBSL never restarts its rho-bar estimate, so on some inputs
			// it has no answer; the comparison is then undefined and only
			// the sampled reference below applies.
			bsl, err := core.ORUBSL(tree, w, k, m, 0)
			switch {
			case errors.Is(err, core.ErrInsufficientData):
				g.noOracle++
			case err != nil:
				g.fail("oracle ORUBSL: %v", err)
				continue
			case !subset(got.ids, recordIDs(bsl.Records)) || math.Abs(got.rho-bsl.Rho) > 1e-7:
				g.fail("oracle ORU w=%v k=%d m=%d: ids %v rho %v, ORUBSL ids %v rho %v",
					w, k, m, sorted(got.ids), got.rho, sorted(recordIDs(bsl.Records)), bsl.Rho)
				continue
			}
			if err := sampledTopK(rng, pts, w, k, got, samples); err != nil {
				g.fail("oracle ORU w=%v k=%d m=%d: %v", w, k, m, err)
				continue
			}
			g.pass()
		}
	}
	return nil
}

// sampledTopK draws preference vectors strictly inside the reported radius
// and checks that each one's brute-force top-k is reported.
func sampledTopK(rng *rand.Rand, pts []geom.Vector, w []float64, k int, got answer, samples int) error {
	reported := make(map[int]bool, len(got.ids))
	for _, id := range got.ids {
		reported[id] = true
	}
	type scored struct {
		id int
		s  float64
	}
	all := make([]scored, len(pts))
	for s := 0; s < samples; s++ {
		v := geom.RandDirichlet(rng, w, 60)
		if v.Dist(w) > got.rho*(1-1e-6) {
			continue
		}
		for i, p := range pts {
			all[i] = scored{i, p.Dot(v)}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].s > all[j].s })
		for r := 0; r < k; r++ {
			if !reported[all[r].id] {
				return fmt.Errorf("record %d is top-%d at distance %g < rho %g but unreported", all[r].id, r+1, v.Dist(w), got.rho)
			}
		}
	}
	return nil
}

func recordIDs(rs []core.Record) []int {
	ids := make([]int, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}
