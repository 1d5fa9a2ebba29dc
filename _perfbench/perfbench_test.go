package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"ordu/internal/data"
	"ordu/internal/geom"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: quantile must sort
	}
	cases := []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.50, 50, 50},
		{0.90, 90, 10},
		{0.99, 99, 1},
		{0.991, 100, 0},
		{1, 100, 0},
		{0.001, 1, 99},
	}
	for _, c := range cases {
		v, beyond := quantile(xs, c.q)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("q=%v: got %v with %d beyond, want %v with %d", c.q, v, beyond, c.want, c.wantBeyond)
		}
	}
	// A p99 backed by ten tail samples needs a thousand samples.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if _, beyond := quantile(big, 0.99); beyond != 10 {
		t.Errorf("p99 of 1000 samples has %d beyond, want 10", beyond)
	}
	if v, beyond := quantile([]float64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("single sample: %v, %d", v, beyond)
	}
	if v, _ := quantile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("empty input: %v, want NaN", v)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2 {
		t.Errorf("median of 1..4 = %v, want 2 (nearest rank)", m)
	}
}

func TestGridSeedsAreValidPreferences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for d := 2; d <= 6; d++ {
		for i := 0; i < 20000; i++ {
			units, w, ok := gridSeed(uniforms(rng, d-1))
			if !ok {
				continue
			}
			sum := 0
			for j, u := range units {
				if u < 0 || w[j] != float64(u)/gridUnits {
					t.Fatalf("d=%d: component %d is %d units, w=%v", d, j, u, w)
				}
				sum += u
			}
			if sum != gridUnits {
				t.Fatalf("d=%d: units sum to %d", d, sum)
			}
			if err := geom.ValidatePreference(geom.Vector(w), d); err != nil {
				t.Fatalf("d=%d: %v", d, err)
			}
		}
	}
}

func TestSameAnswerIgnoresOrderButNotContent(t *testing.T) {
	base := answer{ids: []int{4, 1, 9}, rho: 0.25}
	cases := []struct {
		name string
		got  answer
		same bool
	}{
		{"reordered", answer{ids: []int{9, 4, 1}, rho: 0.25}, true},
		{"rho within 1e-9", answer{ids: []int{1, 4, 9}, rho: 0.25 + 5e-10}, true},
		{"rho off", answer{ids: []int{1, 4, 9}, rho: 0.25 + 5e-9}, false},
		{"other id", answer{ids: []int{1, 4, 8}, rho: 0.25}, false},
		{"duplicate for missing", answer{ids: []int{1, 4, 4}, rho: 0.25}, false},
		{"extra id", answer{ids: []int{1, 4, 9, 2}, rho: 0.25}, false},
	}
	for _, c := range cases {
		if err := sameAnswer(c.got, base); (err == nil) != c.same {
			t.Errorf("%s: sameAnswer = %v, want same=%v", c.name, err, c.same)
		}
	}
	// Large radii compare relatively.
	if err := sameAnswer(answer{ids: []int{1}, rho: 1e6 * (1 + 5e-10)}, answer{ids: []int{1}, rho: 1e6}); err != nil {
		t.Errorf("relative rho: %v", err)
	}
}

func TestCheckShape(t *testing.T) {
	ord := &request{class: classORD, m: 3}
	good := answer{ids: []int{5, 2, 7}, radii: []float64{0, 0, 0.1}, rho: 0.1}
	if err := checkShape(ord, good); err != nil {
		t.Fatalf("tied radii rejected: %v", err)
	}
	bad := []answer{
		{ids: []int{5, 2}, radii: []float64{0, 0.1}, rho: 0.1},
		{ids: []int{5, 5, 7}, radii: []float64{0, 0, 0.1}, rho: 0.1},
		{ids: []int{5, 2, 7}, radii: []float64{0, 0.2, 0.1}, rho: 0.1},
		{ids: []int{5, 2, 7}, radii: []float64{0, 0, 0.1}, rho: 0.2},
	}
	for i, a := range bad {
		if checkShape(ord, a) == nil {
			t.Errorf("bad answer %d accepted", i)
		}
	}

	oru := &request{class: classORU, m: 3}
	regions := []region{{ids: []int{3, 1}, minDist: 0}, {ids: []int{1, 3}, minDist: 0.2}, {ids: []int{1, 8}, minDist: 0.4}}
	if err := checkShape(oru, answer{ids: []int{3, 1, 8}, rho: 0.4, regions: regions}); err != nil {
		t.Errorf("ORU answer rejected: %v", err)
	}
	// Two records tied at rho enter together: four records for m=3.
	tied := append(regions, region{ids: []int{8, 9}, minDist: 0.4})
	if err := checkShape(oru, answer{ids: []int{3, 1, 8, 9}, rho: 0.4, regions: tied}); err != nil {
		t.Errorf("ORU answer with a tie at rho rejected: %v", err)
	}
	badORU := []answer{
		// Too few records.
		{ids: []int{3, 1}, rho: 0.2, regions: regions[:2]},
		// Three records already below rho: rho is not minimal.
		{ids: []int{3, 1, 8, 9}, rho: 0.5, regions: append(append([]region(nil), regions...), region{ids: []int{9, 8}, minDist: 0.5})},
		// rho is not the last region's distance.
		{ids: []int{3, 1, 8}, rho: 0.3, regions: regions},
		// A record no region confirms.
		{ids: []int{3, 1, 7}, rho: 0.4, regions: regions},
	}
	for i, a := range badORU {
		if checkShape(oru, a) == nil {
			t.Errorf("bad ORU answer %d accepted", i)
		}
	}
}

func TestStreamIsDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a, err := genStream(wl, 42, 3000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genStream(wl, 42, 3000)
		c, _ := genStream(wl, 43, 3000)
		if a.digest != b.digest {
			t.Errorf("%s: same seed, digests %s and %s", wl.name, a.digest, b.digest)
		}
		for i := range a.reqs {
			if string(a.reqs[i].body) != string(b.reqs[i].body) || a.reqs[i].path != b.reqs[i].path {
				t.Fatalf("%s: request %d differs between identical seeds", wl.name, i)
			}
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 42 and 43 give the same stream", wl.name)
		}
		checkStreamInvariants(t, wl, a)
	}
}

// checkStreamInvariants: valid seeds, no repeated seed where seeds must not
// repeat, each original id written at most once, each delete after its
// insert, and a dataset size that stays within 1%.
func checkStreamInvariants(t *testing.T, wl workload, st *stream) {
	t.Helper()
	seen := map[string]bool{}
	written := map[int]bool{}
	live := map[int]int{} // reserved id -> insert index
	size := wl.n
	for i, q := range st.reqs {
		switch q.class {
		case classORD, classORU:
			if err := geom.ValidatePreference(geom.Vector(q.w), wl.d); err != nil {
				t.Fatalf("%s request %d: %v", wl.name, i, err)
			}
			key := string(mustJSON(t, q.w))
			if wl.zipfPool == 0 && seen[key] {
				t.Fatalf("%s request %d repeats seed %v", wl.name, i, q.w)
			}
			seen[key] = true
		case classUpsert:
			if q.id >= wl.n || written[q.id] {
				t.Fatalf("%s request %d: upsert of id %d", wl.name, i, q.id)
			}
			written[q.id] = true
		case classInsert:
			if q.id < reservedBase || written[q.id] {
				t.Fatalf("%s request %d: insert of id %d", wl.name, i, q.id)
			}
			written[q.id] = true
			live[q.id] = i
			size++
		case classDelete:
			at, ok := live[q.id]
			if !ok || q.dep != at || i-at < conns {
				t.Fatalf("%s request %d: delete of id %d (insert at %d, dep %d)", wl.name, i, q.id, at, q.dep)
			}
			delete(live, q.id)
			size--
		}
		if math.Abs(float64(size-wl.n)) > 0.01*float64(wl.n) {
			t.Fatalf("%s: dataset size %d drifted beyond 1%% of %d", wl.name, size, wl.n)
		}
	}
	if wl.zipfPool > 0 && len(seen) > wl.zipfPool {
		t.Fatalf("%s: %d distinct seeds from a pool of %d", wl.name, len(seen), wl.zipfPool)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tiny workloads keep the smoke runs to a few seconds.
var (
	tinyRead = workload{name: "tiny-read", dist: data.ANTI, n: 3000, d: 3, dataSeed: 1,
		oruFrac: 1, oruK: 2, oruM: 8, rate: 80, checkStride: 2, tracePrefix: 20}
	tinyMixed = workload{name: "tiny-mixed", dist: data.IND, n: 3000, d: 3, dataSeed: 1,
		ordFrac: 0.6, oruFrac: 0.3, ordK: 3, ordM: 10, oruK: 2, oruM: 6,
		zipfPool: 64, rate: 600, tracePrefix: 60}
)

func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the served system")
	}
	for _, wl := range []workload{tinyRead, tinyMixed} {
		res, err := runEndToEnd(wl, 3, 1500*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: %+v", wl.name, res)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m]; !ok || !(v.Value > 0) {
				t.Errorf("%s: metric %s = %+v", wl.name, m, v)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the served system")
	}
	dir := t.TempDir()
	for _, wl := range []workload{tinyRead, tinyMixed} {
		res, err := runTraced(wl, 3, dir)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: %+v", wl.name, res)
		}
		for _, pl := range perLayer {
			if _, ok := res.Metrics[pl.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wl.name, pl.name)
			}
		}
		again, err := runTraced(wl, 3, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range perLayer {
			if pl.mean && again.Metrics[pl.name] != res.Metrics[pl.name] {
				t.Errorf("%s: count %s changed between identical runs: %v vs %v", wl.name, pl.name, res.Metrics[pl.name], again.Metrics[pl.name])
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end-to-end metric %d: %q vs %q", i, m.Name, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %+v vs %+v", i, m, perLayer[i])
		}
	}
}
