package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"idonly/internal/engine"
	"idonly/internal/store"
)

// gridCold sweeps the small preset's shape into an empty store, again
// and again: each operation opens a fresh store, runs the cold sweep
// through store.CachedRunAll (timed), re-sweeps it warm from the store
// and checks that the cold report's ContentDigest equals the warm
// one's and the first operation's.
func gridCold(cfg config) (*outcome, error) {
	grid, err := gridColdGrid(cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		specs := grid.Scenarios()
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", i))
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		_, _, err = store.CachedRunAll(st, specs, engine.Options{Grid: grid.Name})
		if cerr := closeStore(st, dir); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("grid-cold warm-up sweep: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}

	specs := grid.Scenarios()
	var cold, warm, opens []float64
	var firstDigest string
	ls := newLayerSums()
	deadline := time.Now().Add(cfg.seconds)
	for op := 0; op < cfg.minOps() || time.Now().Before(deadline); op++ {
		traced := cfg.trace && op%2 == 0 // odd operations give the untraced baseline
		dir := filepath.Join(cfg.dir, fmt.Sprintf("op-%d", op))
		t0 := time.Now()
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(t0).Seconds())
		var ins *instruments
		if traced {
			ins = instrument(st)
		}
		coldS, warmS, digest, bad, err := gridColdOp(cfg.rec, st, specs, grid.Name, ins, ls)
		if ins != nil {
			ls.addStore(st, ins.reg)
			ls.addEngine(ins.eo)
			ls.ops++
		}
		if cerr := closeStore(st, dir); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		out.attempted++
		if op == 0 {
			firstDigest = digest
		}
		if digest != firstDigest {
			bad = append(bad, fmt.Sprintf("content digest %s differs from the first operation's %s", digest[:12], firstDigest[:12]))
		}
		if len(bad) > 0 {
			out.fail("grid-cold op %d: %s", op, strings.Join(bad, "; "))
		}
		cold = append(cold, coldS)
		warm = append(warm, warmS)
	}

	d := newDist(cold)
	out.p50ms = d.Median() * 1e3
	var sum float64
	for _, x := range cold {
		sum += x
	}
	out.rate = float64(len(specs)*len(cold)) / sum
	out.note("sweep_s", d.Median(), "s", d.N())
	out.note("warm_sweep_s", newDist(warm).Median(), "s", len(warm))
	if cfg.trace {
		ls.set("store.open_s", newDist(opens).Median())
		ls.set("store.warm_sweep_s", newDist(warm).Median())
	}
	out.layer, out.opSpan = ls, coldSweepSpan
	return out, nil
}

// coldSweepSpan names the root span of one grid-cold operation.
const coldSweepSpan = "grid-cold.cold_sweep"

// gridColdOp is one operation: the cold sweep, the verifying warm
// re-sweep and the output checks. bad lists failed checks.
// In a traced run (rec non-nil) an untraced operation records only its
// cold sweep's root span, the baseline of trace.overhead_ratio.
func gridColdOp(rec *recorder, st *store.Store, specs []engine.Scenario, gridName string,
	ins *instruments, ls *layerSums) (coldS, warmS float64, digest string, bad []string, err error) {
	opts := engine.Options{Grid: gridName}
	traced := ins != nil
	var eo *engine.Obs
	if traced {
		eo = ins.eo
	}

	// Cold sweep: every scenario misses, computes, and lands in one
	// fsync'd batch.
	var getBefore, appendBefore histSnap
	if traced {
		getBefore, appendBefore = storeHists(ins.reg)
	}
	start := time.Now()
	var root int64
	if traced {
		root = rec.add(0, coldSweepSpan, layerStore, start, start) // end set below
		opts.Hooks = engine.Hooks{Obs: eo, Span: scenarioSink(rec, root, ls)}
	}
	aggBefore := aggSum(eo)
	rep, stats, err := store.CachedRunAll(st, specs, opts)
	end := time.Now()
	if err != nil {
		return 0, 0, "", nil, fmt.Errorf("cold sweep: %w", err)
	}
	coldS = end.Sub(start).Seconds()
	if !traced {
		rec.addUntraced(coldSweepSpan, layerStore, start, end)
	} else {
		rec.setEnd(root, end)
		getAfter, appendAfter := storeHists(ins.reg)
		// The store's Get and PutBatch and the engine's Aggregate run
		// inside CachedRunAll; their histograms give each one's time,
		// placed in program order: every Get first, then the append,
		// then aggregation.
		getS := getAfter.sum - getBefore.sum
		appendS := appendAfter.sum - appendBefore.sum
		aggS := aggSum(eo) - aggBefore
		rec.add(root, "store.get (histogram)", layerStore, start, start.Add(secs(getS)))
		aggStart := end.Add(-secs(aggS))
		rec.add(root, "store.put_batch (histogram)", layerStore, aggStart.Add(-secs(appendS)), aggStart)
		rec.add(root, "engine.aggregate (histogram)", layerEngine, aggStart, end)
	}
	if stats.Misses != len(specs) || stats.Hits != 0 {
		bad = append(bad, fmt.Sprintf("cold sweep split hits=%d misses=%d, want 0/%d", stats.Hits, stats.Misses, len(specs)))
	}
	if errs := rep.Errors(); len(errs) > 0 {
		bad = append(bad, fmt.Sprintf("%d scenarios failed, first %s: %s", len(errs), errs[0].Scenario.Name, errs[0].Err))
	}

	// Warm re-sweep: every scenario is served from the store.
	start = time.Now()
	aggBefore = aggSum(eo)
	if traced {
		root = rec.add(0, "grid-cold.warm_sweep", layerStore, start, start)
		opts.Hooks = engine.Hooks{Obs: eo, Span: scenarioSink(rec, root, ls)}
	}
	rep2, stats2, err := store.CachedRunAll(st, specs, opts)
	end = time.Now()
	if err != nil {
		return 0, 0, "", nil, fmt.Errorf("warm sweep: %w", err)
	}
	warmS = end.Sub(start).Seconds()
	if traced {
		rec.setEnd(root, end)
		rec.add(root, "engine.aggregate (histogram)", layerEngine, end.Add(-secs(aggSum(eo)-aggBefore)), end)
	}
	if stats2.Hits != len(specs) {
		bad = append(bad, fmt.Sprintf("warm re-sweep served %d of %d from the store", stats2.Hits, len(specs)))
	}

	if digest, err = rep.ContentDigest(); err != nil {
		return 0, 0, "", nil, err
	}
	warmDigest, err := rep2.ContentDigest()
	if err != nil {
		return 0, 0, "", nil, err
	}
	if warmDigest != digest {
		bad = append(bad, fmt.Sprintf("warm digest %s differs from cold %s", warmDigest[:12], digest[:12]))
	}
	if traced {
		ls.timeCanonical(rep, rec)
		ls.timeDigests(specs)
	}
	return coldS, warmS, digest, bad, nil
}
