package main

import (
	"fmt"
	"strings"
	"time"

	"idonly/internal/engine"
	"idonly/internal/obs"
)

// ringSweepSpan names the root span of one ring-flood operation.
const ringSweepSpan = "ring-flood.sweep"

// ringFlood sweeps the ring min-id flood at n = 10 000 through
// engine.RunAll with no store, again and again, and checks that every
// result reads converged=n/n.
func ringFlood(cfg config) (*outcome, error) {
	out := &outcome{}
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		specs := ringSpecs(cfg.seed)
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				return nil, err
			}
		}
		engine.RunAll(specs, engine.Options{Grid: "ring-flood"}) // warm-up sweep
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}

	specs := ringSpecs(cfg.seed)
	want := fmt.Sprintf("converged=%d/%d", ringN, ringN)
	var sweeps []float64
	ls := newLayerSums()
	deadline := time.Now().Add(cfg.seconds)
	for op := 0; op < cfg.minOps() || time.Now().Before(deadline); op++ {
		opts := engine.Options{Grid: "ring-flood"}
		rec := cfg.rec
		traced := cfg.trace && op%2 == 0 // odd operations give the untraced baseline
		var eo *engine.Obs
		if traced {
			eo = engine.NewObs(obs.NewRegistry())
		}
		start := time.Now()
		var root int64
		if traced {
			root = rec.add(0, ringSweepSpan, layerEngine, start, start)
			opts.Hooks = engine.Hooks{Obs: eo, Span: scenarioSink(rec, root, ls)}
		}
		rep := engine.RunAll(specs, opts)
		end := time.Now()
		sweepS := end.Sub(start).Seconds()
		sweeps = append(sweeps, sweepS)
		out.attempted++
		var bad []string
		for _, r := range rep.Results {
			if r.Err != "" || !strings.HasSuffix(r.Output, want) {
				bad = append(bad, fmt.Sprintf("%s: output %q err %q", r.Scenario.Name, r.Output, r.Err))
			}
		}
		if len(bad) > 0 {
			out.fail("ring-flood op %d: %s", op, strings.Join(bad, "; "))
		}
		if !traced {
			rec.addUntraced(ringSweepSpan, layerEngine, start, end)
			continue
		}
		rec.setEnd(root, end)
		rec.add(root, "engine.aggregate (histogram)", layerEngine, end.Add(-secs(eo.Agg.Sum())), end)
		ls.addEngine(eo)
		ls.ops++
		ls.timeCanonical(rep, rec)
		ls.timeDigests(specs)
	}

	d := newDist(sweeps)
	out.p50ms = d.Median() * 1e3
	var sum float64
	for _, x := range sweeps {
		sum += x
	}
	out.rate = float64(len(specs)*len(sweeps)) / sum
	out.note("sweep_s", d.Median(), "s", d.N())
	out.layer, out.opSpan = ls, ringSweepSpan
	return out, nil
}
