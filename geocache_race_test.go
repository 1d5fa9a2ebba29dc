package ordu_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ordu"
	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/server"
)

// oruAnswer is one ORU answer observed during a read phase.
type oruAnswer struct {
	w      []float64
	k, m   int
	body   []byte          // handler response body (nil for direct calls)
	direct *ordu.ORUResult // ds.ORU result (nil for handler calls)
	err    error
}

// TestGeoCacheUnderConcurrentWrites interleaves ORU queries — through the
// handler of a two-worker server, and through concurrent direct ds.ORU
// calls — with point inserts and deletes on one dataset. After every write
// batch, each answer must equal a recomputation with a private geometry
// cache, so a cache entry surviving a write would show up as a mismatch.
// Run it under -race: the handler readers and the direct readers all share
// the dataset's cache.
func TestGeoCacheUnderConcurrentWrites(t *testing.T) {
	pts := data.Synthetic(data.ANTI, 1500, 3, 7)
	recs := make([][]float64, len(pts))
	for i, p := range pts {
		recs[i] = p
	}
	ds, err := ordu.NewDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Workers: 2, CacheSize: -1})
	srv.AddDataset("d", ds)
	h := srv.Handler()
	post := func(path string, body any) *httptest.ResponseRecorder {
		b, _ := json.Marshal(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		return rec
	}
	// (k, m) pairs: m = 20 exhausts the rho-bar estimate on this data, so
	// the cached k-skyband layers are shared; m = 8 keeps it finite.
	params := [][2]int{{2, 20}, {3, 8}, {3, 20}}
	query := func(rng *rand.Rand, direct bool) oruAnswer {
		p := params[rng.Intn(len(params))]
		a := oruAnswer{w: geom.RandSimplex(rng, 3), k: p[0], m: p[1]}
		if direct {
			a.direct, a.err = ds.ORU(a.w, a.k, a.m)
			return a
		}
		rec := post("/query/oru", server.QueryRequest{Dataset: "d", W: a.w, K: a.k, M: a.m})
		if rec.Code != http.StatusOK {
			a.err = fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		a.body = rec.Body.Bytes()
		return a
	}

	wrng := rand.New(rand.NewSource(1))
	var recent []int // records of the last read phase's answers: deleting them changes the geometry
	for round := 0; round < 3; round++ {
		// Write batch, with handler reads running against it.
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 2; i++ {
					if a := query(rng, false); a.err != nil {
						t.Errorf("round %d: ORU during writes: %v", round, a.err)
					}
				}
			}(int64(100*round + g))
		}
		for i := 0; i < 6; i++ {
			if i%2 == 0 && len(recent) > 0 {
				id := recent[wrng.Intn(len(recent))]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/datasets/d/points/%d", id), strings.NewReader("")))
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					t.Fatalf("delete %d: status %d", id, rec.Code)
				}
				continue
			}
			// Slightly above the ANTI plane sum(x) = 1.5: new skyline records.
			p := geom.RandSimplex(wrng, 3).Scale(1.6)
			if rec := post("/datasets/d/points", server.PointWriteRequest{Point: p}); rec.Code != http.StatusCreated {
				t.Fatalf("insert: status %d: %s", rec.Code, rec.Body.String())
			}
		}
		wg.Wait()

		// Read phase: two handler readers and four direct readers share
		// the cache.
		answers := make([][]oruAnswer, 6)
		for g := range answers {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000*round + g)))
				for i := 0; i < 3; i++ {
					answers[g] = append(answers[g], query(rng, g >= 2))
				}
			}(g)
		}
		wg.Wait()

		recent = recent[:0]
		for _, as := range answers {
			for _, a := range as {
				want, err := ds.ORUPrivateCache(a.w, a.k, a.m)
				if err != nil || a.err != nil {
					if !errors.Is(err, ordu.ErrInsufficientData) || a.err == nil {
						t.Fatalf("round %d w=%v k=%d m=%d: errors %v / reference %v", round, a.w, a.k, a.m, a.err, err)
					}
					continue
				}
				for _, r := range want.Records {
					recent = append(recent, r.ID)
				}
				if a.direct != nil {
					if !reflect.DeepEqual(a.direct, want) {
						t.Fatalf("round %d w=%v k=%d m=%d: direct ORU answer differs from the private-cache answer", round, a.w, a.k, a.m)
					}
					continue
				}
				wantBody, err := json.Marshal(server.NewORUResponse(want))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.body, wantBody) {
					t.Fatalf("round %d w=%v k=%d m=%d: handler answer differs from the private-cache answer", round, a.w, a.k, a.m)
				}
			}
		}
	}
}
