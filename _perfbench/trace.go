package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"ordu"
	"ordu/internal/collection"
	"ordu/internal/core"
	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/hull"
	"ordu/internal/rtree"
	"ordu/internal/server"
	"ordu/internal/skyband"
)

// span is one timed call at a layer boundary. Spans of one request share
// its stream index as trace id; every child's parent is the request's
// server span. Children are separate direct calls on the same inputs, not
// nested inside the server call, so a layer's self time is its span minus
// the span of the layer below it on the same request.
type span struct {
	Trace  int              `json:"trace"`
	Name   string           `json:"name"`
	Parent string           `json:"parent,omitempty"`
	Start  int64            `json:"start_ns"`
	Dur    int64            `json:"dur_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// time runs fn as a span and returns its duration in ms.
func (t *tracer) time(trace int, name, parent string, fn func()) float64 {
	start := time.Now()
	fn()
	dur := time.Since(start)
	t.spans = append(t.spans, span{Trace: trace, Name: name, Parent: parent, Start: start.Sub(t.t0).Nanoseconds(), Dur: dur.Nanoseconds()})
	return float64(dur) / 1e6
}

// count attaches counts to the most recent span.
func (t *tracer) count(kv map[string]int64) { t.spans[len(t.spans)-1].Counts = kv }

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceStream is the replayed stream: a fixed prefix of the workload's
// stream, plus a small probe of each request class the workload lacks so
// that every layer reports on every workload. Probe figures describe the
// probe, not the workload.
func traceStream(wl workload, seed int64) (*stream, error) {
	st, err := genStream(wl, seed, wl.tracePrefix)
	if err != nil {
		return nil, err
	}
	if wl.ordFrac > 0 && wl.oruFrac > 0 && wl.writeFrac() > 0 {
		return st, nil
	}
	probe := wl
	probe.zipfPool = 0
	probe.ordFrac, probe.oruFrac = 0, 0
	if wl.ordFrac <= 0 {
		probe.ordFrac, probe.ordK, probe.ordM = 1.0/3, 5, 30
	}
	if wl.oruFrac <= 0 {
		probe.oruFrac, probe.oruK, probe.oruM = 1.0/3, 3, 10
	}
	const probeReqs = 36
	extra, err := genStream(probe, seed^0x5eed, probeReqs)
	if err != nil {
		return nil, err
	}
	off := len(st.reqs)
	for _, q := range extra.reqs {
		if q.dep >= 0 {
			q.dep += off
		}
		st.reqs = append(st.reqs, q)
	}
	st.digest = digest(st.reqs)
	return st, nil
}

// handlerCall runs one request through the server's handler in-process.
func handlerCall(h http.Handler, q *request) *httptest.ResponseRecorder {
	req := httptest.NewRequest(q.method, q.path, bytes.NewReader(q.body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// layerTimes collects per-request figures by metric name.
type layerTimes map[string][]float64

func (lt layerTimes) add(name string, v float64) { lt[name] = append(lt[name], v) }

func runTraced(wl workload, seed int64, root string) (*result, error) {
	st, err := traceStream(wl, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace stream %s seed %d requests %d sha256 %s\n", wl.name, seed, len(st.reqs), st.digest)
	lt := layerTimes{}
	g := &gate{}

	// Set-up layers, each timed on its own.
	var pts []geom.Vector
	for rep := 0; rep < 3; rep++ {
		var recs [][]float64
		t0 := time.Now()
		pts = data.Synthetic(wl.dist, wl.n, wl.d, wl.dataSeed)
		lt.add("data.generate_s", time.Since(t0).Seconds())
		t0 = time.Now()
		rtree.BulkLoad(pts)
		lt.add("rtree.bulk_load_s", time.Since(t0).Seconds())
		recs = records(wl)
		t0 = time.Now()
		if _, err := ordu.NewDataset(recs); err != nil {
			return nil, err
		}
		lt.add("ordu.new_dataset_s", time.Since(t0).Seconds())
	}

	newServer := func() (*server.Server, error) {
		ds, err := ordu.NewDataset(records(wl))
		if err != nil {
			return nil, err
		}
		srv := server.New(server.Config{Workers: workers})
		srv.AddDataset(datasetName, ds)
		return srv, nil
	}

	// Untraced replay: the same requests through the same handler path,
	// for the tracing overhead.
	srv, err := newServer()
	if err != nil {
		return nil, err
	}
	var untracedORD []float64
	for i := range st.reqs {
		q := &st.reqs[i]
		t0 := time.Now()
		rec := handlerCall(srv.Handler(), q)
		if q.class == classORD && rec.Code == 200 {
			untracedORD = append(untracedORD, float64(time.Since(t0))/1e6)
		}
	}

	// Traced replay on fresh state: the server, a facade mirror and a
	// collection mirror whose tree the core, skyband and rtree calls use.
	srv, err = newServer()
	if err != nil {
		return nil, err
	}
	mirror, err := ordu.NewDataset(records(wl))
	if err != nil {
		return nil, err
	}
	col, err := collection.FromPoints(data.Synthetic(wl.dist, wl.n, wl.d, wl.dataSeed))
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	ctx := context.Background()
	failed := 0
	var tracedORD []float64
	for i := range st.reqs {
		q := &st.reqs[i]
		var rec *httptest.ResponseRecorder
		srvMS := tr.time(i, "server."+q.class.String(), "", func() { rec = handlerCall(srv.Handler(), q) })
		if rec.Code < 200 || rec.Code > 299 {
			failed++
		}
		hit := rec.Header().Get("X-Cache") == "HIT"
		parent := "server." + q.class.String()
		switch q.class {
		case classORD:
			tracedORD = append(tracedORD, srvMS)
			var res *ordu.ORDResult
			var ferr error
			fac := tr.time(i, "ordu.ord", parent, func() { res, ferr = mirror.ORDCtx(ctx, q.w, q.k, q.m) })
			if ferr != nil {
				g.fail("trace %d: facade ORD: %v", i, ferr)
				continue
			}
			lt.add("ordu.ord_ms", fac)
			var body []byte
			mar := tr.time(i, "server.marshal_ord", parent, func() { body, ferr = json.Marshal(server.NewORDResponse(res)) })
			lt.add("server.marshal_ord_ms", mar)
			if !hit {
				lt.add("server.ord_self_ms", srvMS-fac)
			}
			var cres *core.ORDResult
			cms := tr.time(i, "core.ord", parent, func() { cres, ferr = core.ORDCtx(ctx, col.Tree(), q.w, q.k, q.m) })
			if ferr != nil {
				g.fail("trace %d: core ORD: %v", i, ferr)
				continue
			}
			tr.count(map[string]int64{"fetched": int64(cres.Stats.Fetched), "heap_pops": int64(cres.Stats.HeapPops)})
			lt.add("core.ord_ms", cms)
			lt.add("core.ord_fetched", float64(cres.Stats.Fetched))
			lt.add("core.ord_heap_pops", float64(cres.Stats.HeapPops))
			g.compareTraced(i, q, rec, body, answer{ids: recordIDs(cres.Records), rho: cres.Rho})
		case classORU:
			var res *ordu.ORUResult
			var ferr error
			fac := tr.time(i, "ordu.oru", parent, func() { res, ferr = mirror.ORUCtx(ctx, q.w, q.k, q.m) })
			if ferr != nil {
				g.fail("trace %d: facade ORU: %v", i, ferr)
				continue
			}
			lt.add("ordu.oru_ms", fac)
			var body []byte
			mar := tr.time(i, "server.marshal_oru", parent, func() { body, ferr = json.Marshal(server.NewORUResponse(res)) })
			lt.add("server.marshal_oru_ms", mar)
			if !hit {
				lt.add("server.oru_self_ms", srvMS-fac)
			}
			var cres *core.ORUResult
			cms := tr.time(i, "core.oru", parent, func() { cres, ferr = core.ORUWithCtx(ctx, col.Tree(), q.w, q.k, q.m, core.ORUOptions{}) })
			if ferr != nil {
				g.fail("trace %d: core ORU: %v", i, ferr)
				continue
			}
			s := cres.Stats
			tr.count(map[string]int64{"fetched": int64(s.Fetched), "regions_partitioned": int64(s.RegionsPartitioned),
				"regions_finalized": int64(s.RegionsFinalized), "layers_computed": int64(s.LayersComputed)})
			lt.add("ordu.oru_self_ms", fac-cms)
			lt.add("core.oru_ms", cms)
			lt.add("core.oru_fetched", float64(s.Fetched))
			lt.add("core.oru_regions_partitioned", float64(s.RegionsPartitioned))
			lt.add("core.oru_regions_finalized", float64(s.RegionsFinalized))
			lt.add("core.oru_layers_computed", float64(s.LayersComputed))
			// The rho-skyband at the answer's rho and its hull layers, as
			// far as the core went.
			var members []skyband.Member
			sky := tr.time(i, "skyband.rho_skyband", parent, func() {
				members, ferr = skyband.RhoSkybandCtx(ctx, col.Tree(), q.w, q.k, cres.Rho)
			})
			if ferr != nil {
				g.fail("trace %d: rho-skyband: %v", i, ferr)
				continue
			}
			tr.count(map[string]int64{"size": int64(len(members))})
			hms := tr.time(i, "hull.layers", parent, func() {
				ids := make([]int, len(members))
				ps := make([]geom.Vector, len(members))
				for j, m := range members {
					ids[j], ps[j] = m.ID, m.Point
				}
				ls := hull.NewLayers(ids, ps)
				for t := 0; t < s.LayersComputed && ls.Layer(t) != nil; t++ {
				}
			})
			lt.add("skyband.rho_skyband_ms", sky)
			lt.add("skyband.rho_skyband_size", float64(len(members)))
			lt.add("hull.layers_ms", hms)
			lt.add("core.oru_self_ms", cms-sky-hms)
			g.compareTraced(i, q, rec, body, answer{ids: recordIDs(cres.Records), rho: cres.Rho})
		default:
			var werr error
			fac := tr.time(i, "ordu.write", parent, func() { werr = handlerWrite(mirror, q) })
			if werr != nil {
				g.fail("trace %d: facade %s: %v", i, q.class, werr)
				continue
			}
			lt.add("ordu.write_ms", fac)
			lt.add("server.write_self_ms", srvMS-fac)
			probe := q.point
			if q.class == classDelete {
				old, _ := col.Get(q.id)
				probe = append([]float64(nil), old...)
			}
			cd := tr.time(i, "rtree.count_dominators", parent, func() { col.Tree().CountDominators(probe) })
			lt.add("rtree.count_dominators_ms", cd)
			if q.class == classDelete {
				col.Delete(q.id)
			} else if _, err := col.Upsert(q.id, q.point); err != nil {
				g.fail("trace %d: collection %s: %v", i, q.class, err)
			}
		}
	}

	snap := srv.Snapshot()
	writes := snap.Mutations.Inserts + snap.Mutations.Updates + snap.Mutations.Deletes
	queries := snap.Cache.Hits + snap.Cache.Misses
	path := filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	fmt.Printf("gate checked %d answers, %d mismatches\n", g.checked, len(g.findings))
	for _, f := range g.findings {
		fmt.Printf("MISMATCH %s\n", f)
	}

	ms := map[string]metric{}
	for _, pl := range perLayer {
		xs := lt[pl.name]
		if len(xs) == 0 {
			continue
		}
		v := median(xs)
		if pl.mean {
			v = mean(xs)
		}
		ms[pl.name] = metric{v, pl.unit}
	}
	ms["server.cache_hit_frac"] = metric{ratio(snap.Cache.Hits, queries), "fraction"}
	ms["server.cache_dropped_per_write"] = metric{ratio(snap.Mutations.CacheDropped, writes), "count"}
	ms["server.refused_frac"] = metric{ratio(snap.Responses["429"], snap.Responses["total"]), "fraction"}
	ms["trace.overhead_ord_p50_ms"] = metric{median(tracedORD) - median(untracedORD), "ms"}
	for _, pl := range perLayer {
		if _, ok := ms[pl.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s has no samples", pl.name)
		}
	}
	return &result{Correct: g.ok(), Attempted: len(st.reqs), Failed: failed, Metrics: ms}, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// handlerWrite applies a point write to a facade dataset exactly as the
// server's handler does, keep-test dominator counts included.
func handlerWrite(ds *ordu.Dataset, q *request) error {
	if q.class == classDelete {
		old, live := ds.Record(q.id)
		if !live {
			return fmt.Errorf("delete of absent id %d", q.id)
		}
		ds.CountDominators(old)
		ds.Delete(q.id)
		return nil
	}
	if old, live := ds.Record(q.id); live {
		ds.CountDominators(old)
	}
	if _, err := ds.Upsert(q.id, q.point); err != nil {
		return err
	}
	ds.CountDominators(q.point)
	return nil
}

// compareTraced checks, for one replayed read, the served answer against
// the facade's wire answer and the facade against the core: in a
// single-client replay all three hold the same dataset, so they must agree
// exactly.
func (g *gate) compareTraced(i int, q *request, rec *httptest.ResponseRecorder, facadeBody []byte, coreAns answer) {
	served, err := decodeAnswer(rec.Body.Bytes())
	var facade answer
	if err == nil {
		err = checkShape(q, served)
	}
	if err == nil {
		facade, err = decodeAnswer(facadeBody)
	}
	if err == nil {
		err = sameAnswer(served, facade)
	}
	if err == nil {
		err = sameAnswer(facade, coreAns)
	}
	if err != nil {
		g.fail("trace %d (%s w=%v k=%d m=%d): %v", i, q.class, q.w, q.k, q.m, err)
		return
	}
	g.pass()
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name string
	unit string
	mean bool // counts are averaged per request; times take the median
}

// perLayer lists the traced run's metrics, in BENCHMARK.json order.
var perLayer = []layerMetric{
	{name: "server.ord_self_ms", unit: "ms"},
	{name: "server.marshal_ord_ms", unit: "ms"},
	{name: "server.oru_self_ms", unit: "ms"},
	{name: "server.marshal_oru_ms", unit: "ms"},
	{name: "server.write_self_ms", unit: "ms"},
	{name: "server.cache_hit_frac", unit: "fraction"},
	{name: "server.cache_dropped_per_write", unit: "count"},
	{name: "server.refused_frac", unit: "fraction"},
	{name: "ordu.ord_ms", unit: "ms"},
	{name: "ordu.oru_ms", unit: "ms"},
	{name: "ordu.oru_self_ms", unit: "ms"},
	{name: "ordu.write_ms", unit: "ms"},
	{name: "rtree.count_dominators_ms", unit: "ms"},
	{name: "core.ord_ms", unit: "ms"},
	{name: "core.ord_fetched", unit: "count", mean: true},
	{name: "core.ord_heap_pops", unit: "count", mean: true},
	{name: "core.oru_ms", unit: "ms"},
	{name: "core.oru_self_ms", unit: "ms"},
	{name: "core.oru_fetched", unit: "count", mean: true},
	{name: "core.oru_regions_partitioned", unit: "count", mean: true},
	{name: "core.oru_regions_finalized", unit: "count", mean: true},
	{name: "core.oru_layers_computed", unit: "count", mean: true},
	{name: "skyband.rho_skyband_ms", unit: "ms"},
	{name: "skyband.rho_skyband_size", unit: "count", mean: true},
	{name: "hull.layers_ms", unit: "ms"},
	{name: "data.generate_s", unit: "s"},
	{name: "rtree.bulk_load_s", unit: "s"},
	{name: "ordu.new_dataset_s", unit: "s"},
	{name: "trace.overhead_ord_p50_ms", unit: "ms"},
}
