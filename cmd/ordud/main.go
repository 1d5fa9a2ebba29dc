// Command ordud is the ORD/ORU query daemon: it keeps named datasets
// resident in memory and serves both operators over an HTTP JSON API with
// worker-pool admission control, per-request deadlines, a result cache and
// health/metrics endpoints (see internal/server).
//
// Datasets are live: POST /datasets/{name}/points inserts or upserts a
// point (auto-assigned id when omitted) and DELETE
// /datasets/{name}/points/{id} removes one, with queries and writes
// serialised per dataset and the result cache invalidated per entry via the
// dominance keep-test. Write counters surface in /metrics and /datasets.
//
// Examples:
//
//	ordud -addr :8375 -gen demo=ANTI:50000:4:1
//	ordud -data hotels=hotels.csv -data nba=nba.csv -workers 8 -timeout 5s
//
// Dataset flags are repeatable. -data takes name=path.csv (numeric CSV, no
// header; columns min-max normalised). -gen takes name=DIST:n:d[:seed]
// with DIST one of IND, COR, ANTI — or name=DIST[:n[:seed]] for the
// canned real-like generators HOTEL, HOUSE, NBA, TA.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ordu/internal/server"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot pin connections.
const readHeaderTimeout = 10 * time.Second

// repeated collects a repeatable string flag.
type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(s string) error { *r = append(*r, s); return nil }

func main() {
	var dataFlags, genFlags repeated
	var (
		addr       = flag.String("addr", ":8375", "listen address")
		workers    = flag.Int("workers", runtime.NumCPU(), "max concurrently executing queries")
		queue      = flag.Int("queue", 0, "max queued requests beyond workers (0 = 2*workers)")
		cacheSize  = flag.Int("cache", 256, "LRU result-cache entries (negative disables)")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTimeout = flag.Duration("max-timeout", 60*time.Second, "cap on request-supplied deadlines")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	)
	flag.Var(&dataFlags, "data", "dataset from CSV: name=path.csv (repeatable)")
	flag.Var(&genFlags, "gen", "generated dataset: name=DIST:n:d[:seed] (repeatable)")
	flag.Parse()

	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	})

	if len(dataFlags) == 0 && len(genFlags) == 0 {
		genFlags = repeated{"default=IND:50000:4:1"}
		log.Printf("no datasets given; loading %s", genFlags[0])
	}
	for _, spec := range dataFlags {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			fatal(fmt.Errorf("bad -data %q: want name=path.csv", spec))
		}
		ds, err := server.BuildDataset(path, nil)
		if err != nil {
			fatal(fmt.Errorf("-data %s: %w", name, err))
		}
		srv.AddDataset(name, ds)
		log.Printf("dataset %q: %d records x %d attributes (from %s)", name, ds.Len(), ds.Dim(), path)
	}
	for _, spec := range genFlags {
		name, g, err := parseGenSpec(spec)
		if err != nil {
			fatal(err)
		}
		ds, err := server.BuildDataset("", g)
		if err != nil {
			fatal(fmt.Errorf("-gen %s: %w", name, err))
		}
		srv.AddDataset(name, ds)
		log.Printf("dataset %q: %d records x %d attributes (%s)", name, ds.Len(), ds.Dim(), g.Dist)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pprofAddr != "" {
		// Profiling stays off the query listener: a dedicated mux on a
		// dedicated (typically loopback-only) address, so pprof is never
		// reachable through the public API surface.
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: pprofMux(), ReadHeaderTimeout: readHeaderTimeout}
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof listener: %v", err)
			}
		}()
		go func() {
			<-ctx.Done()
			shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			pprofSrv.Shutdown(shutCtx)
		}()
	}
	go func() {
		<-ctx.Done()
		log.Printf("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()
	eff := srv.Config()
	log.Printf("ordud listening on %s (workers=%d queue=%d cache=%d timeout=%v)",
		*addr, eff.Workers, eff.QueueDepth, eff.CacheSize, eff.DefaultTimeout)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// pprofMux registers the net/http/pprof handlers on a fresh mux instead of
// http.DefaultServeMux, keeping profiling isolated to the -pprof listener.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// parseGenSpec parses name=DIST:n:d[:seed] (synthetic) or
// name=DIST[:n[:seed]] (real-like generators, which fix d themselves).
func parseGenSpec(spec string) (string, *server.GeneratorSpec, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", nil, fmt.Errorf("bad -gen %q: want name=DIST:n:d[:seed]", spec)
	}
	parts := strings.Split(rest, ":")
	g := &server.GeneratorSpec{Dist: parts[0], Seed: 1}
	nums := make([]int64, 0, 3)
	for _, p := range parts[1:] {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return "", nil, fmt.Errorf("bad -gen %q: %v", spec, err)
		}
		nums = append(nums, v)
	}
	synthetic := map[string]bool{"IND": true, "COR": true, "ANTI": true}[strings.ToUpper(g.Dist)]
	if synthetic {
		if len(nums) < 2 || len(nums) > 3 {
			return "", nil, fmt.Errorf("bad -gen %q: synthetic generators want DIST:n:d[:seed]", spec)
		}
		g.N, g.D = int(nums[0]), int(nums[1])
		if len(nums) == 3 {
			g.Seed = nums[2]
		}
	} else {
		if len(nums) > 2 {
			return "", nil, fmt.Errorf("bad -gen %q: real-like generators want DIST[:n[:seed]]", spec)
		}
		if len(nums) >= 1 {
			g.N = int(nums[0])
		}
		if len(nums) == 2 {
			g.Seed = nums[1]
		}
	}
	return name, g, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ordud:", err)
	os.Exit(1)
}
