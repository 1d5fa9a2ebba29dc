package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"ordu/internal/server"
)

// outcome is what the client saw for one issued request. Each slot is
// written by exactly one connection goroutine and read after they all
// return.
type outcome struct {
	issued bool
	phase  phase
	// due is when an open-loop request was scheduled (zero in closed loop);
	// latency is measured from it, so a stall also charges the requests
	// queued behind it.
	due        time.Time
	sent, done time.Time
	// lag is how late the generator handed the request to a free
	// connection: sent minus the later of due and the moment a connection
	// became free.
	lag    time.Duration
	status int
	err    error
	body   []byte
}

type phase uint8

const (
	phaseWarmup phase = iota
	phaseLatency
	phaseSaturation
)

func (o *outcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

// latency is the open-loop latency from the due time.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// liveServer is a server.Server listening on loopback.
type liveServer struct {
	hs     *http.Server
	base   string
	client *http.Client
	tr     *http.Transport
	served chan error
}

func startServer(srv *server.Server) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	ls := &liveServer{
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		tr:     tr,
		served: make(chan error, 1),
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop shuts the listener down and waits for Serve to return.
func (ls *liveServer) stop() error {
	ls.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// call issues one HTTP request and reads the whole reply.
func (ls *liveServer) call(method, path string, body []byte) (status int, reply []byte, err error) {
	req, err := http.NewRequest(method, ls.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// run drives a stream against a live server.
type run struct {
	ls   *liveServer
	st   *stream
	outs []outcome
	// done[i] is closed once insert i completes, for deletes that depend
	// on it. The map is built up front and only read afterwards.
	done map[int]chan struct{}
}

func newRun(ls *liveServer, st *stream) *run {
	r := &run{ls: ls, st: st, outs: make([]outcome, len(st.reqs)), done: make(map[int]chan struct{})}
	for _, q := range st.reqs {
		if q.dep >= 0 {
			r.done[q.dep] = make(chan struct{})
		}
	}
	return r
}

// issue sends request i and records its outcome.
func (r *run) issue(i int, ph phase, due, free time.Time) {
	q := &r.st.reqs[i]
	o := &r.outs[i]
	o.issued, o.phase, o.due = true, ph, due
	o.sent = time.Now()
	if !due.IsZero() {
		o.lag = o.sent.Sub(later(due, free))
	}
	o.status, o.body, o.err = r.ls.call(q.method, q.path, q.body)
	o.done = time.Now()
	if ch, ok := r.done[i]; ok {
		close(ch)
	}
}

// waitDep blocks until the insert a delete depends on has completed.
func (r *run) waitDep(i int) {
	if dep := r.st.reqs[i].dep; dep >= 0 {
		<-r.done[dep]
	}
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// closedLoop runs stream indices from, from+1, ... on conns connections,
// each sending its next request as soon as the previous one returns, until
// the indices run out or, with limit > 0, the time does. It returns the
// index after the last request issued.
func (r *run) closedLoop(from, to int, ph phase, limit time.Duration) int {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		idx = from
	)
	deadline := time.Now().Add(limit)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if idx >= to || (limit > 0 && time.Now().After(deadline)) {
			return 0, false
		}
		i := idx
		idx++
		// Dispatch in stream order: a delete holds later requests until
		// its insert is done, which keeps the issued set a prefix.
		r.waitDep(i)
		return i, true
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				r.issue(i, ph, time.Time{}, time.Time{})
			}
		}()
	}
	wg.Wait()
	return idx
}

// openLoop schedules stream indices [from, to) at a fixed rate and hands
// each, when due, to the first free connection. A request that finds both
// connections busy waits; its latency still counts from its due time.
func (r *run) openLoop(from, to int, rate float64) {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			for j := range jobs {
				r.issue(j.i, phaseLatency, j.due, free)
				free = time.Now()
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	interval := float64(time.Second) / rate
	for i := from; i < to; i++ {
		due := start.Add(time.Duration(float64(i-from) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.waitDep(i)
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
}

// count reports how many requests of a phase were issued and how many
// of those failed.
func (r *run) count(ph phase) (attempted, failed int) {
	for i := range r.outs {
		o := &r.outs[i]
		if o.issued && o.phase == ph {
			attempted++
			if !o.ok() {
				failed++
			}
		}
	}
	return attempted, failed
}
