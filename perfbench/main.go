// Command perfbench is the repository benchmark. One run measures one
// seeded workload for a fixed time, checks the program's outputs, and
// prints its figures by name with their units; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end figures; with --trace 1
// they are the per-layer figures, measured from outside each layer
// (timed calls into its public functions and the program's existing
// hooks), and the run's spans are saved under the work directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	setups   int       // set-ups per run; setup_s is their median
	dir      string    // scratch space for stores, removed at exit
	rec      *recorder // span recorder; nil unless tracing
}

// minOps is the fewest operations a batch run makes: a traced run
// alternates traced and untraced ones and needs one of each.
func (c config) minOps() int {
	if c.trace {
		return 2
	}
	return 1
}

var workloads = map[string]func(config) (*outcome, error){
	"grid-cold":  gridCold,
	"ring-flood": ringFlood,
	"serve-mix":  serveMix,
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	failures          []string // the first few, for the log
	setupS            []float64
	p50ms, rate       float64
	notes             []string // further named figures, printed for reading only
	layer             *layerSums
	opSpan            string // name prefix of one operation's root span
}

// fail counts one failed, refused or wrong-output operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(name string, v float64, unit string, n int) {
	o.notes = append(o.notes, fmt.Sprintf("%-24s %14.6g %-6s n=%d", name, v, unit, n))
}

// notePercentile prints a percentile only when at least minBeyond
// samples lie beyond it.
func (o *outcome) notePercentile(name string, v float64, ok bool, unit string, n int) {
	if !ok {
		o.notes = append(o.notes, fmt.Sprintf("%-24s %14s %-6s n=%d (fewer than %d samples beyond it)", name, "-", unit, n, minBeyond))
		return
	}
	o.note(name, v, unit, n)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "grid-cold, ring-flood or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1 reports per-layer figures and saves spans")
	workDir := flag.String("work-dir", ".bench_build", "directory for scratch stores and span files")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {grid-cold,ring-flood,serve-mix} --seconds >= 1 --trace {0,1}\n")
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, setups: 3}
	res, err := measure(run, cfg, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs one workload in a fresh scratch directory, prints its
// figures for reading and returns the result object.
func measure(run func(config) (*outcome, error), cfg config, workDir string) (*result, error) {
	cfg.dir = filepath.Join(workDir, fmt.Sprintf("perfbench-%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)
	if cfg.trace {
		cfg.rec = newRecorder()
	}
	out, err := run(cfg)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}

	fmt.Printf("perfbench %s seed=%d seconds=%.0f trace=%v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	for _, f := range out.failures {
		fmt.Println("FAILED", f)
	}
	e2e := map[string]float64{
		"setup_s":     newDist(out.setupS).Median(),
		"peak_rss_mb": rss,
		"p50_ms":      out.p50ms,
		"rate_per_s":  out.rate,
	}
	for _, m := range endToEnd {
		fmt.Printf("%-24s %14.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	errRatio := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Printf("%-24s %14.6g %-6s n=%d\n", "error_ratio", errRatio, "ratio", out.attempted)
	for _, n := range out.notes {
		fmt.Println(n)
	}

	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]value{}}
	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{finite(e2e[m.name]), m.unit}
		}
		return res, nil
	}

	// The span figures are built from the saved file, so the file
	// holds everything the report says.
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.ndjson", cfg.workload, cfg.seed))
	if err := cfg.rec.writeFile(path); err != nil {
		return nil, err
	}
	spans, err := readSpans(path)
	if err != nil {
		return nil, err
	}
	rep, err := reportSpans(spans, out.opSpan)
	if err != nil {
		return nil, err
	}
	layer := out.layer.final()
	for _, l := range layers {
		layer["span.self_s."+l] = rep.selfS[l]
	}
	layer["trace.overhead_ratio"] = rep.overhead
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
		res.Metrics[m.name] = value{finite(layer[m.name]), m.unit}
	}
	var unknown []string
	for k := range layer {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("undeclared per-layer figures %s", strings.Join(unknown, ", "))
	}
	fmt.Println("per-layer (per operation unless a count of operations, ratio or percentile):")
	for _, m := range perLayer {
		fmt.Printf("  %-30s %14.6g %s\n", m.name, layer[m.name], m.unit)
	}
	fmt.Printf("%d spans of %d traced operations saved to %s\n", len(spans), rep.ops, path)
	return res, nil
}

// finite maps a figure JSON cannot carry (a median over failed
// requests, a ratio over nothing) to 0; such runs also fail a check.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
