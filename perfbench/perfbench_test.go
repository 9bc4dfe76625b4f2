package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"idonly/internal/engine"
)

func TestInputsRepeatForOneSeedAndDifferAcrossSeeds(t *testing.T) {
	type inputs struct {
		Grid   []engine.Scenario
		Ring   []engine.Scenario
		Hot    [][]byte
		Open   []arrival
		Closed []request
	}
	gen := func(seed uint64) inputs {
		g, err := gridColdGrid(seed)
		if err != nil {
			t.Fatal(err)
		}
		in := newServeInputs(seed)
		m := newMix(&in, seed, 1)
		var closed []request
		for k := 0; k < 500; k++ {
			closed = append(closed, m.next(uint64(closedEpochBase+k/dupEveryReqs)))
		}
		return inputs{Grid: g.Scenarios(), Ring: ringSpecs(seed), Hot: in.hot,
			Open: openSchedule(&in, seed, 3*time.Second), Closed: closed}
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations from seed 7 differ")
	}
	for name, pair := range map[string][2]any{
		"grid": {a.Grid, c.Grid}, "ring": {a.Ring, c.Ring}, "hot": {a.Hot, c.Hot},
		"open schedule": {a.Open, c.Open}, "closed mix": {a.Closed, c.Closed},
	} {
		if reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s inputs are the same for seeds 7 and 8", name)
		}
	}
	if len(a.Grid) != 288 {
		t.Errorf("grid-cold expands to %d scenarios, want 288", len(a.Grid))
	}
	// The open loop offers ~600 rps in the 70/15/15 mix.
	var n [3]int
	for _, x := range a.Open {
		n[x.class]++
	}
	if len(a.Open) < 1500 || len(a.Open) > 2100 {
		t.Errorf("3 s of arrivals holds %d requests, want about 1800", len(a.Open))
	}
	if f := float64(n[classHot]) / float64(len(a.Open)); f < 0.65 || f > 0.75 {
		t.Errorf("hot share %.3f, want about 0.70", f)
	}
}

func TestColdSeedsNeverRepeatOrMeetHotSeeds(t *testing.T) {
	in := newServeInputs(3)
	seen := map[uint64]bool{}
	for _, seeds := range in.hotSeeds {
		for _, s := range seeds {
			seen[s] = true
		}
	}
	lanes := []*mix{{in: &in, r: stream(3, streamArrivals), lanes: 1 + closedWorkers}}
	for w := 0; w < closedWorkers; w++ {
		lanes = append(lanes, newMix(&in, 3, uint64(w+1)))
	}
	for _, m := range lanes {
		for k := 0; k < 2000; k++ {
			if r := m.next(0); r.class == classCold {
				if seen[r.seed] {
					t.Fatalf("cold seed %d sent twice or shared with a hot grid", r.seed)
				}
				seen[r.seed] = true
			}
		}
	}
}

func TestPercentileReportsOnlyWithTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	d := newDist(xs)
	if d.N() != 100 {
		t.Fatalf("N = %d, want 100", d.N())
	}
	if m := d.Median(); m != 50.5 {
		t.Errorf("median = %g, want 50.5", m)
	}
	if v, ok := d.Percentile(0.9); !ok || v != 90 {
		t.Errorf("p90 = %g ok=%v, want 90 with ten samples beyond", v, ok)
	}
	if v, ok := d.Percentile(0.99); ok {
		t.Errorf("p99 = %g reported over 100 samples; one lies beyond it", v)
	}
	if _, ok := newDist(nil).Percentile(0.5); ok {
		t.Error("percentile of an empty sample reported")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sweep", Layer: layerStore, Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Layer: layerEngine, Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Layer: layerEngine, Start: 3, End: 6},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Layer: layerEngine, Start: 8, End: 12}, // runs past the parent
		{ID: 5, Parent: 2, Name: "rounds", Layer: layerSim, Start: 2, End: 4},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{layerStore: 3e-9, layerEngine: (1 + 3 + 4) * 1e-9, layerSim: 2e-9}
	for l, w := range want {
		if !near(self[l], w) {
			t.Errorf("self time of %s = %g, want %g", l, self[l], w)
		}
	}
	if _, err := selfTimes([]span{{ID: 1, Parent: 9, Start: 0, End: 1}}); err == nil {
		t.Error("a span with an unknown parent was accepted")
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }

func TestReportSpansSeparatesUntracedBaseline(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Layer: layerEngine, Start: 0, End: 12},
		{ID: 2, Parent: 1, Name: "rounds", Layer: layerSim, Start: 0, End: 8},
		{ID: 3, Name: "op", Layer: layerEngine, Start: 20, End: 30, Untraced: true},
		{ID: 4, Name: "op", Layer: layerEngine, Start: 40, End: 50},
		{ID: 5, Parent: 4, Name: "rounds", Layer: layerSim, Start: 40, End: 48},
		{ID: 6, Name: "canonical", Layer: layerEngine, Start: 60, End: 61},
	}
	r, err := reportSpans(spans, "op")
	if err != nil {
		t.Fatal(err)
	}
	if r.ops != 2 {
		t.Errorf("%d traced operations, want 2", r.ops)
	}
	if r.overhead != 1.1 { // median traced 11 over untraced 10
		t.Errorf("overhead %g, want 1.1", r.overhead)
	}
	// Per traced operation: engine (4 + 2 + 1) / 2, sim 16 / 2; the
	// untraced root counts for neither.
	if !near(r.selfS[layerEngine], 3.5e-9) || !near(r.selfS[layerSim], 8e-9) {
		t.Errorf("self times %v, want engine 3.5ns and sim 8ns", r.selfS)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, ours []metric, theirs []struct{ Name, Unit string }) {
		if len(ours) != len(theirs) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(ours), len(theirs))
			return
		}
		for i, m := range ours {
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s metric name %q does not match %s", kind, m.name, nameRE)
			}
			if m.name != theirs[i].Name || m.unit != theirs[i].Unit {
				t.Errorf("%s metric %d is %s [%s] here, %s [%s] in BENCHMARK.json",
					kind, i, m.name, m.unit, theirs[i].Name, theirs[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(bench.Workloads), len(workloads))
	}
}

func TestCheckReportRejectsWrongOutput(t *testing.T) {
	good := []byte(`{"scenarios": 1, "groups": [], "results": [{"scenario": {"seed": 5}}]}`)
	if err := checkReport(good, []uint64{5}); err != nil {
		t.Fatalf("a matching report was rejected: %v", err)
	}
	for name, body := range map[string]string{
		"wrong seed":  `{"scenarios": 1, "results": [{"scenario": {"seed": 6}}]}`,
		"errored":     `{"scenarios": 1, "results": [{"scenario": {"seed": 5}, "err": "boom"}]}`,
		"two results": `{"scenarios": 2, "results": [{"scenario": {"seed": 5}}, {"scenario": {"seed": 5}}]}`,
		"not json":    `{"scenarios": `,
	} {
		if checkReport([]byte(body), []uint64{5}) == nil {
			t.Errorf("%s report accepted", name)
		}
	}
}

// TestSmoke runs each workload briefly, untraced and traced, and
// requires every output check to pass and every declared metric to be
// reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator for several seconds")
	}
	for _, w := range []string{"serve-mix", "ring-flood", "grid-cold"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 5, seconds: time.Second, trace: trace, setups: 1}
			res, err := measure(workloads[w], cfg, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.name)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}
