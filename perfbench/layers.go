package main

import (
	"os"
	"strings"
	"sync"
	"time"

	"idonly/internal/engine"
	"idonly/internal/obs"
	"idonly/internal/store"
)

// scenarioSink turns the engine's per-scenario spans into layer spans
// under parent: a computed scenario is an engine span holding a sim
// span for its rounds; a cached one is a store lookup.
func scenarioSink(rec *recorder, parent int64, ls *layerSums) engine.SpanSink {
	return func(sp engine.Span) {
		end := time.Now()
		start := end.Add(-time.Duration(sp.WallNS))
		if sp.Cached {
			rec.add(parent, "store.get "+sp.Scenario, layerStore, start, end)
			return
		}
		id := rec.add(parent, "engine.scenario "+sp.Scenario, layerEngine, start, end)
		rs := start.Add(time.Duration(sp.BuildNS))
		rec.add(id, "sim.run", layerSim, rs, rs.Add(time.Duration(sp.RunNS)))
		ls.addScenario(sp)
	}
}

// layerSums accumulates per-layer figures over a run's traced
// operations; safe for the engine's concurrent span sinks.
type layerSums struct {
	mu   sync.Mutex
	v    map[string]float64
	ops  int
	abs  map[string]bool // figures that are not divided by ops
	canS []float64
	digU []float64
}

func newLayerSums() *layerSums {
	return &layerSums{v: map[string]float64{}, abs: map[string]bool{}}
}

func (l *layerSums) add(name string, x float64) {
	l.mu.Lock()
	l.v[name] += x
	l.mu.Unlock()
}

// set records a figure as is, not divided by the operation count.
func (l *layerSums) set(name string, x float64) {
	l.mu.Lock()
	l.v[name] = x
	l.abs[name] = true
	l.mu.Unlock()
}

func (l *layerSums) addScenario(sp engine.Span) {
	proto, _, _ := strings.Cut(sp.Scenario, "/")
	l.mu.Lock()
	defer l.mu.Unlock()
	l.v["sim.run_s"] += float64(sp.RunNS) / 1e9
	l.v["sim.run_s."+proto] += float64(sp.RunNS) / 1e9
	l.v["sim.rounds"] += float64(sp.Rounds)
	l.v["sim.msgs"] += float64(sp.Messages)
	l.v["engine.build_s"] += float64(sp.BuildNS) / 1e9
}

func (l *layerSums) addEngine(eo *engine.Obs) {
	l.add("engine.computed", float64(eo.Computed.Value()))
	l.add("engine.cached", float64(eo.Cached.Value()))
	l.add("engine.aggregate_s", eo.Agg.Sum())
}

// addStore folds one instrumented store's lifetime into the sums.
func (l *layerSums) addStore(st *store.Store, reg *obs.Registry) {
	get, app := storeHists(reg)
	s := st.Stats()
	l.add("store.gets", float64(s.Gets))
	l.add("store.get_s", get.sum)
	l.add("store.hits", float64(s.Hits))
	l.add("store.hot_hits", float64(s.HotHits))
	l.add("store.appends", float64(app.count))
	l.add("store.append_s", app.sum)
	l.add("store.puts", float64(s.Puts))
	l.add("store.coalesced", float64(s.Coalesced))
	l.add("store.log_bytes", float64(s.LogBytes))
}

func (l *layerSums) timeCanonical(rep *engine.Report, rec *recorder) {
	start := time.Now()
	if _, err := rep.CanonicalBytes(); err != nil {
		return // marshalling a computed or decoded report does not fail
	}
	end := time.Now()
	rec.add(0, "engine.canonical_bytes", layerEngine, start, end)
	l.mu.Lock()
	l.canS = append(l.canS, end.Sub(start).Seconds())
	l.mu.Unlock()
}

// timeDigests times Scenario.Digest over the operation's scenarios.
func (l *layerSums) timeDigests(specs []engine.Scenario) {
	start := time.Now()
	for _, s := range specs {
		s.Digest()
	}
	us := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(specs))
	l.mu.Lock()
	l.digU = append(l.digU, us)
	l.mu.Unlock()
}

// final returns every per-layer figure by name: sums divided by the
// traced operation count, derived ratios, and medians of per-call
// timings.
func (l *layerSums) final() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := map[string]float64{}
	for k, x := range l.v {
		if l.abs[k] || l.ops == 0 {
			v[k] = x
		} else {
			v[k] = x / float64(l.ops)
		}
	}
	if v["sim.run_s"] > 0 {
		v["sim.msgs_per_s"] = v["sim.msgs"] / v["sim.run_s"]
	}
	if v["store.gets"] > 0 {
		v["store.hit_ratio"] = v["store.hits"] / v["store.gets"]
	}
	if v["store.hits"] > 0 {
		v["store.hot_hit_ratio"] = v["store.hot_hits"] / v["store.hits"]
	}
	if v["store.appends"] > 0 {
		v["store.records_per_append"] = v["store.puts"] / v["store.appends"]
	}
	if len(l.canS) > 0 {
		v["engine.canonical_s"] = newDist(l.canS).Median()
	}
	if len(l.digU) > 0 {
		v["engine.digest_us"] = newDist(l.digU).Median()
	}
	delete(v, "store.hits")
	delete(v, "store.hot_hits")
	return v
}

type histSnap struct {
	count int64
	sum   float64
}

// instruments is one traced operation's registry: the store's metric
// families (store.Instrument) and the engine's (engine.NewObs).
type instruments struct {
	reg *obs.Registry
	eo  *engine.Obs
}

func instrument(st *store.Store) *instruments {
	reg := obs.NewRegistry()
	st.Instrument(reg)
	return &instruments{reg: reg, eo: engine.NewObs(reg)}
}

// storeHists reads the Get and PutBatch latency histograms that
// store.Instrument registered on reg; registering an existing series
// returns it.
func storeHists(reg *obs.Registry) (get, app histSnap) {
	g := reg.Histogram("idonly_store_get_seconds", "", obs.LatencyBuckets)
	a := reg.Histogram("idonly_store_append_seconds", "", obs.LatencyBuckets)
	return histSnap{g.Count(), g.Sum()}, histSnap{a.Count(), a.Sum()}
}

func aggSum(eo *engine.Obs) float64 {
	if eo == nil {
		return 0
	}
	return eo.Agg.Sum()
}

func secs(s float64) time.Duration { return time.Duration(s * 1e9) }

func closeStore(st *store.Store, dir string) error {
	err := st.Close()
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}
