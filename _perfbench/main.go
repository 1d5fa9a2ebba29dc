// Command perfbench is the repository's end-to-end and per-layer benchmark
// for ordud. It starts internal/server's Server in-process on loopback,
// builds one workload's dataset, drives a request stream generated from
// --seed, checks the answers, and prints one JSON result line. With
// --trace 1 it instead replays the stream once untraced and once with
// spans around direct calls into each layer, and prints per-layer figures.
// See README.md for the workloads and the metric map.
//
//	go build -o perfbench . && ./perfbench --workload ord-read --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"ordu"
	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/server"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const setupReps = 9

// endToEnd lists the end-to-end metrics, in BENCHMARK.json order.
var endToEnd = []string{"setup_s", "heap_bytes_per_record", "p50_ms", "saturation_rps"}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ord-read, oru-read or mixed-write")
		seed    = flag.Int64("seed", 1, "seed of the request stream")
		seconds = flag.Int("seconds", 24, "measured seconds: two thirds open-loop latency, one third saturation")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
		root    = flag.String("root", ".", "checkout root, for the source digest and trace output")
		commit  = flag.String("commit", "unknown", "git commit of the checkout, for the stamp")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d): %v\n", *name, *seconds, *trace, err)
		os.Exit(2)
	}
	st := newStamp(*root, *commit)
	stampJSON, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", stampJSON)

	var res *result
	if *trace == 1 {
		res, err = runTraced(wl, *seed, *root)
	} else {
		res, err = runEndToEnd(wl, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", wl.name, *seed, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// records generates the workload's dataset.
func records(wl workload) [][]float64 {
	pts := data.Synthetic(wl.dist, wl.n, wl.d, wl.dataSeed)
	recs := make([][]float64, len(pts))
	for i, p := range pts {
		recs[i] = p
	}
	return recs
}

// setup generates the records, indexes them and registers the dataset,
// setupReps times, and reports the median wall time. The first round also
// measures the live heap the dataset adds per record.
func setup(wl workload, srv *server.Server) (setupS, heapPerRecord float64, err error) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		var before runtime.MemStats
		if rep == 0 {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		ds, err := ordu.NewDataset(records(wl))
		if err != nil {
			return 0, 0, err
		}
		srv.AddDataset(datasetName, ds)
		times = append(times, time.Since(t0).Seconds())
		if rep == 0 {
			runtime.GC()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			heapPerRecord = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(wl.n)
		}
	}
	return median(times), heapPerRecord, nil
}

func runEndToEnd(wl workload, seed int64, seconds time.Duration) (*result, error) {
	latDur := seconds * 2 / 3
	satDur := seconds - latDur
	latN := int(math.Round(wl.rate * latDur.Seconds()))
	// The saturation phase stops on time; the stream leaves room for
	// sixteen times the offered rate, eight times the measured saturation.
	satCap := int(math.Ceil(16*wl.rate*satDur.Seconds())) + 64
	warmN := int(math.Round(wl.rate * warmup.Seconds()))
	st, err := genStream(wl, seed, warmN+latN+satCap)
	if err != nil {
		return nil, err
	}
	fmt.Printf("stream %s seed %d requests %d sha256 %s\n", wl.name, seed, len(st.reqs), st.digest)

	g := &gate{}
	if err := g.oracleFixture(seed); err != nil {
		return nil, fmt.Errorf("oracle fixture: %w", err)
	}

	srv := server.New(server.Config{Workers: workers})
	setupS, heap, err := setup(wl, srv)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ls, err := startServer(srv)
	if err != nil {
		return nil, err
	}
	r := newRun(ls, st)
	latFrom := warmN
	satFrom := latFrom + latN
	r.closedLoop(0, latFrom, phaseWarmup, 0)
	r.openLoop(latFrom, satFrom, wl.rate)
	satStart := time.Now()
	satEnd := r.closedLoop(satFrom, len(st.reqs), phaseSaturation, satDur)
	if satEnd == len(st.reqs) {
		ls.stop()
		return nil, fmt.Errorf("saturation phase ran out of stream after %d requests", satEnd-satFrom)
	}
	satRPS := completionRate(r.outs[satFrom:satEnd], satStart, satDur)

	checkServed(g, wl, st, r)
	if wl.writeFrac() > 0 {
		if err := g.checkFinalState(wl, st, r); err != nil {
			ls.stop()
			return nil, err
		}
	}
	if err := ls.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}

	p50, lagMean := summarise(wl, st, r)
	snap := srv.Snapshot()
	fmt.Printf("saturation %s: %.1f req/s over %d requests; cache hit rate %.3f\n",
		wl.name, satRPS, satEnd-satFrom, snap.Cache.HitRate)
	if interval := 1000 / wl.rate; lagMean > interval/2 {
		return nil, fmt.Errorf("generator fell behind: sends ran %.3f ms late on average, over half the %.3f ms between requests; no figures reported", lagMean, interval)
	}
	attLat, failLat := r.count(phaseLatency)
	attSat, failSat := r.count(phaseSaturation)
	fmt.Printf("gate checked %d answers, %d mismatches; ORUBSL had no answer for %d oracle queries\n", g.checked, len(g.findings), g.noOracle)
	for _, f := range g.findings {
		fmt.Printf("MISMATCH %s\n", f)
	}
	return &result{
		Correct:   g.ok(),
		Attempted: attLat + attSat,
		Failed:    failLat + failSat,
		Metrics: map[string]metric{
			"setup_s":               {setupS, "s"},
			"heap_bytes_per_record": {heap, "B"},
			"p50_ms":                {p50, "ms"},
			"saturation_rps":        {satRPS, "1/s"},
		},
	}, nil
}

// completionRate is the rate of successful completions within the
// saturation phase; requests still in flight at its end do not count.
func completionRate(outs []outcome, start time.Time, dur time.Duration) float64 {
	n := 0
	for i := range outs {
		if outs[i].ok() && !outs[i].done.After(start.Add(dur)) {
			n++
		}
	}
	return float64(n) / dur.Seconds()
}

func (wl workload) writeFrac() float64 { return 1 - wl.ordFrac - wl.oruFrac }

// summarise prints the latency-phase percentiles from the due time, per
// request class with sample counts, and the generator lag. It returns the
// all-request median and the mean lag in ms. A failed request counts as
// missing every limit. Only the median is gated: on a shared two-core box
// the tails move by more than any usable bound between runs of one seed,
// so they are printed for reading, not compared.
func summarise(wl workload, st *stream, r *run) (p50, lagMean float64) {
	var lags []float64
	perClass := map[string][]float64{}
	for i := range r.outs {
		o := &r.outs[i]
		if !o.issued || o.phase != phaseLatency {
			continue
		}
		ms := math.Inf(1)
		if o.ok() {
			ms = float64(o.latency()) / 1e6
		}
		key := "write"
		if c := st.reqs[i].class; c.isRead() {
			key = c.String()
		}
		perClass["all"] = append(perClass["all"], ms)
		perClass[key] = append(perClass[key], ms)
		lags = append(lags, float64(o.lag)/1e6)
	}
	for _, key := range []string{"all", "ord", "oru", "write"} {
		xs := perClass[key]
		if len(xs) == 0 {
			continue
		}
		q50, _ := quantile(xs, 0.50)
		q90, _ := quantile(xs, 0.90)
		q95, _ := quantile(xs, 0.95)
		q99, beyond := quantile(xs, 0.99)
		fmt.Printf("latency %s %s: n=%d p50=%.3fms p90=%.3fms p95=%.3fms p99=%.3fms (%d beyond p99)\n",
			wl.name, key, len(xs), q50, q90, q95, q99, beyond)
	}
	p50, _ = quantile(perClass["all"], 0.50)
	lagP99, _ := quantile(lags, 0.99)
	lagMax, _ := quantile(lags, 1)
	lagMean = mean(lags)
	fmt.Printf("generator lag: mean=%.3fms p99=%.3fms max=%.3fms over %d sends\n", lagMean, lagP99, lagMax, len(lags))
	return p50, lagMean
}

// checkServed checks every issued read's shape, every id a racing read
// returns for liveness, and on read-only workloads a fixed, seed-determined
// subset of answers against the facade on a mirror dataset.
func checkServed(g *gate, wl workload, st *stream, r *run) {
	lv := newLiveness(st, r.outs, wl.n)
	var compare []int
	for i := range st.reqs {
		q, o := &st.reqs[i], &r.outs[i]
		if !o.issued || !q.class.isRead() || !o.ok() {
			continue
		}
		a, err := decodeAnswer(o.body)
		if err != nil {
			g.fail("request %d: %v", i, err)
			continue
		}
		if err := checkShape(q, a); err != nil {
			g.fail("request %d (%s w=%v): %v", i, q.class, q.w, err)
			continue
		}
		for _, id := range a.ids {
			if !lv.liveDuring(id, o.sent, o.done) {
				g.fail("request %d (%s w=%v): id %d was not live during the request", i, q.class, q.w, id)
			}
		}
		if wl.checkStride > 0 && o.phase != phaseSaturation && i%wl.checkStride == 0 {
			compare = append(compare, i)
		}
	}
	if len(compare) > 0 {
		mirror, err := ordu.NewDataset(records(wl))
		if err != nil {
			g.fail("mirror: %v", err)
			return
		}
		g.checkAgainstMirror(mirror, st, r.outs, compare)
	}
	// Bodies are no longer needed; free them before the next phase.
	for i := range r.outs {
		r.outs[i].body = nil
	}
}

// finalQueries is how many distinct ORD and ORU seeds are asked again after
// a write workload, against a mirror holding the final dataset.
const finalQueries = 16

// checkFinalState compares the served record count and a fixed set of
// post-run answers (the result cache included) with a mirror built from the
// initial records plus the issued writes in stream order.
func (g *gate) checkFinalState(wl workload, st *stream, r *run) error {
	mirror, err := ordu.NewDataset(records(wl))
	if err != nil {
		return err
	}
	if err := applyWrites(mirror, st, r.outs); err != nil {
		return err
	}
	status, body, err := r.ls.call("GET", "/datasets", nil)
	if err != nil || status != 200 {
		return fmt.Errorf("list datasets: status %d: %v", status, err)
	}
	var infos []server.DatasetInfo
	if err := json.Unmarshal(body, &infos); err != nil || len(infos) != 1 {
		return fmt.Errorf("list datasets: %s: %v", body, err)
	}
	if infos[0].Records != mirror.Len() {
		g.fail("served dataset holds %d records, mirror %d", infos[0].Records, mirror.Len())
	} else {
		g.pass()
	}
	// The first distinct seeds of each read class in stream order: with
	// Zipf draws these are the popular ones, so most answers come from the
	// cache and test its invalidation.
	seen := map[string]bool{}
	counts := map[class]int{}
	for i := range st.reqs {
		q := st.reqs[i]
		key := fmt.Sprint(q.class, geom.Vector(q.w))
		if !q.class.isRead() || seen[key] || counts[q.class] >= finalQueries {
			continue
		}
		seen[key] = true
		counts[q.class]++
		status, body, err := r.ls.call(q.method, q.path, q.body)
		if err != nil || status != 200 {
			g.fail("final %s w=%v: status %d %s %v", q.class, q.w, status, body, err)
			continue
		}
		got, err := decodeAnswer(body)
		if err != nil {
			g.fail("final %s: %v", q.class, err)
			continue
		}
		want, err := facadeAnswer(mirror, &q)
		if err != nil {
			g.fail("final %s mirror: %v", q.class, err)
			continue
		}
		if err := sameAnswer(got, want); err != nil {
			g.fail("final %s w=%v k=%d m=%d: served answer differs from the mirror: %v", q.class, q.w, q.k, q.m, err)
			continue
		}
		g.pass()
	}
	return nil
}
