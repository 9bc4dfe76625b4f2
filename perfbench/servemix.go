package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"idonly/internal/engine"
	"idonly/internal/obs"
	"idonly/internal/service"
	"idonly/internal/store"
)

// spanHeader carries the client span's ID to the traced handler, so
// the handler's span can name it as parent.
const spanHeader = "X-Perfbench-Span"

// requestSpan prefixes the root span of one serve-mix request; the
// request's class follows.
const requestSpan = "request."

// blockLen is about how long one open-loop block and the closed-loop
// block after it last together; the run is tiled with them.
const blockLen = 3 * time.Second

// closedEpochBase numbers the closed loop's dup grids apart from the
// open loop's.
const closedEpochBase = 1 << 20

// server is one in-process idonly-serve on a loopback listener, in the
// configuration of the CI loadgen job.
type server struct {
	dir    string
	st     *store.Store
	svc    *service.Service
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
	warm   [][]byte // canonical bytes of each hot grid, captured at warm-up
	openS  float64  // store.Open time
}

func startServer(cfg config, i int, in *serveInputs) (*server, error) {
	s := &server{dir: filepath.Join(cfg.dir, fmt.Sprintf("serve-%d", i))}
	var err error
	start := time.Now()
	if s.st, err = store.Open(s.dir, store.WithHotCache(256)); err != nil {
		return nil, err
	}
	s.openS = time.Since(start).Seconds()
	s.svc = service.New(service.Config{
		Store:            s.st,
		MaxInFlight:      8,
		ScenarioDeadline: 30 * time.Second,
		RunHistory:       64,
		EventBuffer:      1024,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.st.Close()
		return nil, err
	}
	var h http.Handler = s.svc
	if cfg.trace {
		h = &tracedHandler{next: s.svc, runs: s.svc.Runs(), rec: cfg.rec}
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.url = "http://" + ln.Addr().String()
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: closedWorkers, MaxIdleConnsPerHost: closedWorkers, DisableCompression: true,
	}}

	for gi, body := range in.hot {
		code, b, _, err := s.post(body, 0)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, b)
		}
		if err == nil {
			err = checkReport(b, in.hotSeeds[gi])
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("serve-mix warm-up of hot grid %d: %w", gi, err)
		}
		s.warm = append(s.warm, b)
	}
	return s, nil
}

func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if cerr := closeStore(s.st, s.dir); err == nil {
		err = cerr
	}
	return err
}

// post sends one canonical-format sweep and reads the whole response.
func (s *server) post(body []byte, spanID int64) (code int, b []byte, hdr http.Header, err error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/sweep?format=canonical", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err = io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// checkReport decodes a canonical report and checks it holds one
// error-free result per wanted seed, in order.
func checkReport(b []byte, seeds []uint64) error {
	var rep engine.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return fmt.Errorf("decoding canonical report: %w", err)
	}
	if rep.Scenarios != len(seeds) || len(rep.Results) != len(seeds) {
		return fmt.Errorf("report has %d scenarios and %d results, want %d", rep.Scenarios, len(rep.Results), len(seeds))
	}
	for i, r := range rep.Results {
		if r.Scenario.Seed != seeds[i] || r.Err != "" {
			return fmt.Errorf("result %d: seed %d err %q, want seed %d", i, r.Scenario.Seed, r.Err, seeds[i])
		}
	}
	return nil
}

// sample is one request's fate.
type sample struct {
	class     class
	ok        bool
	recompute bool // a dup the server computed instead of coalescing or serving from cache
	lat       time.Duration
	lag       time.Duration // open loop: how late the request was sent
	done      time.Time
}

// send issues req, times it from due and checks the response. A hot
// response must be byte-identical to its warm-up bytes; a cold or dup
// one must be a 200 carrying a decodable canonical report of its seed.
// With a recorder, a traced request's span is the parent of the
// handler's; an untraced one records only its own span, the baseline
// of trace.overhead_ratio.
func (s *server) send(req request, due time.Time, rec *recorder, traced bool) sample {
	sm := sample{class: req.class, lag: time.Since(due)}
	name := requestSpan + req.class.String()
	var id int64
	if traced {
		id = rec.add(0, name, layerClient, due, due)
	}
	code, b, hdr, err := s.post(req.body, id)
	done := time.Now()
	if traced {
		rec.setEnd(id, done)
	} else {
		rec.addUntraced(name, layerClient, due, done)
	}
	sm.lat, sm.done = done.Sub(due), done
	if err != nil || code != http.StatusOK {
		return sm
	}
	switch req.class {
	case classHot:
		sm.ok = bytes.Equal(b, s.warm[req.idx])
	default:
		sm.ok = checkReport(b, []uint64{req.seed}) == nil
		sm.recompute = req.class == classDup &&
			hdr.Get("X-Idonly-Coalesced") != "1" && hdr.Get("X-Idonly-Computed") != "0"
	}
	return sm
}

// tracedHandler times the service's handler and, for the request that
// led a sweep, the sweep itself as the run registry recorded it.
type tracedHandler struct {
	next http.Handler
	runs *obs.RunRegistry
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	if parent == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	id := h.rec.add(parent, "service.handle", layerService, start, end)
	hdr := w.Header()
	if hdr.Get("X-Idonly-Coalesced") == "1" {
		return // the sweep belongs to the request that led it
	}
	if snap, ok := h.runs.Get(hdr.Get("X-Idonly-Run")); ok {
		ss := time.Unix(0, snap.StartUnixNS)
		h.rec.add(id, "store.cached_run_all", layerStore, ss, ss.Add(time.Duration(snap.ElapsedNS)))
	}
}

// serveMix drives an in-process service with the open-loop Poisson
// mix for two thirds of the run and closed loop at nproc connections
// for the rest, in alternating blocks.
func serveMix(cfg config) (*outcome, error) {
	in := newServeInputs(cfg.seed)
	out := &outcome{}
	var srv *server
	var opens []float64
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		s, err := startServer(cfg, i, &in)
		if err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
		opens = append(opens, s.openS)
		if i < cfg.setups-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}

	// The run alternates open-loop and closed-loop blocks, and each
	// end-to-end figure is the median over blocks, so that a stall of a
	// second or two moves it less than it would move a figure over one
	// long phase.
	blocks := max(int(cfg.seconds/blockLen), 1)
	openB := cfg.seconds / time.Duration(blocks) * 2 / 3
	closedB := cfg.seconds/time.Duration(blocks) - openB
	sched := openSchedule(&in, cfg.seed, openB*time.Duration(blocks))
	mixes := make([]*mix, closedWorkers)
	sent := make([]int, closedWorkers)
	for w := range mixes {
		mixes[w] = newMix(&in, cfg.seed, uint64(w+1))
	}
	openSamples := make([]sample, len(sched))
	var closedSamples []sample
	var blockP50, blockRate []float64
	before := readServe(srv)
	for b := 0; b < blocks; b++ {
		lo := sort.Search(len(sched), func(i int) bool { return sched[i].due >= openB*time.Duration(b) })
		hi := sort.Search(len(sched), func(i int) bool { return sched[i].due >= openB*time.Duration(b+1) })
		srv.openLoop(cfg, sched, lo, hi, openB*time.Duration(b), openSamples)
		blockP50 = append(blockP50, latencies(openSamples[lo:hi], nil).Median())
		ws, ok := srv.closedLoop(mixes, sent, closedB)
		closedSamples = append(closedSamples, ws...)
		blockRate = append(blockRate, float64(ok)/closedB.Seconds())
	}
	after := readServe(srv)
	if err := srv.close(); err != nil {
		return nil, err
	}

	all := append(append([]sample(nil), openSamples...), closedSamples...)
	var dups, recomputed int
	for _, sm := range all {
		out.attempted++
		if !sm.ok {
			out.fail("serve-mix %s request failed or answered wrong", sm.class)
		}
		if sm.class == classDup {
			dups++
			if sm.recompute {
				recomputed++
			}
		}
	}
	reqs := latencies(openSamples, nil)
	byClass := func(c class) dist { return latencies(openSamples, func(sm sample) bool { return sm.class == c }) }
	hot, dup, cold := byClass(classHot), byClass(classDup), byClass(classCold)
	var lags []float64
	for _, sm := range openSamples {
		lags = append(lags, float64(sm.lag.Nanoseconds())/1e6)
	}
	lagD := newDist(lags)

	out.p50ms = newDist(blockP50).Median()
	out.rate = newDist(blockRate).Median()
	p90, ok90 := reqs.Percentile(0.9)
	p99, ok99 := reqs.Percentile(0.99)
	out.note("req_p50_ms", reqs.Median(), "ms", reqs.N())
	out.notePercentile("req_p90_ms", p90, ok90, "ms", reqs.N())
	out.notePercentile("req_p99_ms", p99, ok99, "ms", reqs.N())
	out.note("hot_p50_ms", hot.Median(), "ms", hot.N())
	out.note("dup_p50_ms", dup.Median(), "ms", dup.N())
	out.note("cold_p50_ms", cold.Median(), "ms", cold.N())
	out.note("sat_rps", out.rate, "req/s", len(closedSamples))
	lagP99, okLag := lagD.Percentile(0.99)
	out.notePercentile("gen_lag_p99_ms", lagP99, okLag, "ms", lagD.N())

	ls := newLayerSums()
	if cfg.trace {
		ls.ops = len(all)
		after.sub(before).addTo(ls)
		ls.set("service.requests", float64(after.requests-before.requests))
		if dups > 0 {
			ls.set("service.dup_recompute_ratio", float64(recomputed)/float64(dups))
		}
		for name, d := range map[string]dist{"request.hot_p50_ms": hot, "request.dup_p50_ms": dup, "request.cold_p50_ms": cold} {
			ls.set(name, d.Median())
		}
		if ok90 {
			ls.set("request.p90_ms", p90)
		}
		if ok99 {
			ls.set("request.p99_ms", p99)
		}
		ls.set("request.samples", float64(reqs.N()))
		ls.set("store.open_s", newDist(opens).Median())
		ls.set("gen.attempted", float64(len(all)))
		if okLag {
			ls.set("gen.lag_p99_ms", lagP99)
		}
		if err := timeHotRender(ls, &in, srv.warm[0]); err != nil {
			return nil, err
		}
	}
	out.layer, out.opSpan = ls, requestSpan
	return out, nil
}

// openLoop plays arrivals sched[lo:hi], due at their offset minus
// base from now, over the connection workers; a dispatcher releases
// each at its due time and latency runs from then, so a stall shows in
// every request queued behind it. Samples land at their schedule index.
func (s *server) openLoop(cfg config, sched []arrival, lo, hi int, base time.Duration, samples []sample) {
	jobs := make(chan int, hi-lo) // sized to the block: the dispatcher never blocks
	start := time.Now()
	due := func(i int) time.Time { return start.Add(sched[i].due - base) }
	var wg sync.WaitGroup
	for w := 0; w < closedWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				traced := cfg.trace && i%2 == 0 // odd requests give the untraced baseline
				samples[i] = s.send(sched[i].request, due(i), cfg.rec, traced)
			}
		}()
	}
	for i := lo; i < hi; i++ {
		waitUntil(due(i))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// closedLoop runs each worker's mix for d, sending the next request
// when the previous one is answered, and returns the samples and how
// many were answered correctly within d.
func (s *server) closedLoop(mixes []*mix, sent []int, d time.Duration) ([]sample, int) {
	per := make([][]sample, len(mixes))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := range mixes {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := mixes[w].next(uint64(closedEpochBase + sent[w]/dupEveryReqs))
				sent[w]++
				per[w] = append(per[w], s.send(req, time.Now(), nil, false))
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	ok := 0
	for _, ws := range per {
		for _, sm := range ws {
			if sm.ok && sm.done.Before(deadline) {
				ok++
			}
		}
		out = append(out, ws...)
	}
	return out, ok
}

// latencies is the open-loop latency sample, in ms, of the samples
// keep accepts (all when keep is nil). A failed request counts as
// infinitely slow: it misses any latency limit.
func latencies(samples []sample, keep func(sample) bool) dist {
	var xs []float64
	for _, sm := range samples {
		if keep == nil || keep(sm) {
			ms := float64(sm.lat.Nanoseconds()) / 1e6
			if !sm.ok {
				ms = math.Inf(1)
			}
			xs = append(xs, ms)
		}
	}
	return newDist(xs)
}

// waitUntil returns at t. The Go runtime waits for timers at
// millisecond resolution, so time.Sleep can wake a millisecond late,
// which would add the generator's own lateness to every latency
// measured from the due time; nanosleep wakes within about 0.1 ms, and
// a short yield loop covers the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) only lengthens the yield loop
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinWindow covers nanosleep's usual overshoot.
const spinWindow = 150 * time.Microsecond

// serveSnap is the service registry and store counters at one instant.
type serveSnap struct {
	requests                                      int64
	requestS, sweepS                              float64
	coalesced, rejected                           int64
	computed, cached, rounds, msgs                int64
	buildS, runS, aggS                            float64
	get, app                                      histSnap
	gets, hits, hotHits, puts, storeCoal, logSize int64
}

func readServe(s *server) serveSnap {
	reg := s.svc.Registry()
	req := reg.Histogram("idonly_http_request_seconds", "", obs.LatencyBuckets, obs.L("endpoint", "sweep"))
	sw := reg.Histogram("idonly_sweep_seconds", "", obs.LatencyBuckets)
	eo := engine.NewObs(reg) // the service's own engine series: registration is idempotent
	get, app := storeHists(reg)
	st := s.st.Stats()
	return serveSnap{
		requests: req.Count(), requestS: req.Sum(), sweepS: sw.Sum(),
		coalesced: reg.Counter("idonly_coalesce_hits_total", "").Value(),
		rejected: reg.Counter("idonly_sweeps_rejected_total", "").Value() +
			reg.Counter("idonly_ratelimit_rejected_total", "").Value(),
		computed: eo.Computed.Value(), cached: eo.Cached.Value(),
		rounds: eo.Rounds.Value(), msgs: eo.Messages.Value(),
		buildS: eo.Build.Sum(), runS: eo.Run.Sum(), aggS: eo.Agg.Sum(),
		get: get, app: app,
		gets: st.Gets, hits: st.Hits, hotHits: st.HotHits, puts: st.Puts,
		storeCoal: st.Coalesced, logSize: st.LogBytes,
	}
}

func (a serveSnap) sub(b serveSnap) serveSnap {
	return serveSnap{
		requests: a.requests - b.requests, requestS: a.requestS - b.requestS, sweepS: a.sweepS - b.sweepS,
		coalesced: a.coalesced - b.coalesced, rejected: a.rejected - b.rejected,
		computed: a.computed - b.computed, cached: a.cached - b.cached,
		rounds: a.rounds - b.rounds, msgs: a.msgs - b.msgs,
		buildS: a.buildS - b.buildS, runS: a.runS - b.runS, aggS: a.aggS - b.aggS,
		get:  histSnap{a.get.count - b.get.count, a.get.sum - b.get.sum},
		app:  histSnap{a.app.count - b.app.count, a.app.sum - b.app.sum},
		gets: a.gets - b.gets, hits: a.hits - b.hits, hotHits: a.hotHits - b.hotHits,
		puts: a.puts - b.puts, storeCoal: a.storeCoal - b.storeCoal, logSize: a.logSize - b.logSize,
	}
}

// addTo adds the measured phases' deltas to the per-request sums.
func (d serveSnap) addTo(ls *layerSums) {
	for name, x := range map[string]float64{
		"service.request_s": d.requestS, "service.sweep_s": d.sweepS,
		"service.self_s": d.requestS - d.sweepS, "service.coalesced": float64(d.coalesced),
		"service.rejected": float64(d.rejected),
		"engine.computed":  float64(d.computed), "engine.cached": float64(d.cached),
		"engine.build_s": d.buildS, "engine.aggregate_s": d.aggS,
		"sim.run_s": d.runS, "sim.rounds": float64(d.rounds), "sim.msgs": float64(d.msgs),
		"store.gets": float64(d.gets), "store.get_s": d.get.sum, "store.hits": float64(d.hits),
		"store.hot_hits": float64(d.hotHits), "store.appends": float64(d.app.count),
		"store.append_s": d.app.sum, "store.puts": float64(d.puts),
		"store.coalesced": float64(d.storeCoal), "store.log_bytes": float64(d.logSize),
	} {
		ls.add(name, x)
	}
}

// timeHotRender times the engine work a hot request's answer is made
// of, from outside the service: the digests of a hot grid's scenarios
// and the canonical rendering of its report.
func timeHotRender(ls *layerSums, in *serveInputs, warm []byte) error {
	var rep engine.Report
	if err := json.Unmarshal(warm, &rep); err != nil {
		return err
	}
	var specs []engine.Scenario
	for _, body := range in.hot {
		var req service.SweepRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		specs = append(specs, req.Grid.Scenarios()...)
	}
	for i := 0; i < 32; i++ {
		ls.timeCanonical(&rep, nil)
		ls.timeDigests(specs)
	}
	return nil
}
