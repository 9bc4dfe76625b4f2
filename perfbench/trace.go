package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Layers are the repository modules a span can belong to, plus the
// benchmark's own client. Every span names one.
const (
	layerClient  = "client"  // the benchmark's HTTP client: due time to response read
	layerService = "service" // service.Service.ServeHTTP
	layerStore   = "store"   // store.CachedRunAll, Get, PutBatch
	layerEngine  = "engine"  // engine.RunAll, scenario build, Aggregate, CanonicalBytes
	layerSim     = "sim"     // the simulated rounds of one scenario
)

var layers = []string{layerClient, layerService, layerStore, layerEngine, layerSim}

// span is one timed interval at a layer boundary. Parent is the ID of
// the span that caused it (0 for a root); Start and End are nanoseconds
// since the recorder was made.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// Untraced marks the root span of an operation run with tracing
	// off: it has no children and is not part of any layer's self
	// time, only the baseline of the tracing overhead.
	Untraced bool `json:"untraced,omitempty"`
}

// recorder holds spans in memory until the run ends. A nil *recorder
// records nothing, so untraced code paths pass nil and pay one check.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records one span and returns its ID (0 on a nil recorder).
func (r *recorder) add(parent int64, name, layer string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// addUntraced records the root span of an untraced operation.
func (r *recorder) addUntraced(name, layer string, start, end time.Time) {
	if id := r.add(0, name, layer, start, end); id != 0 {
		r.mu.Lock()
		r.spans[id-1].Untraced = true
		r.mu.Unlock()
	}
}

// setEnd closes a span that was added with its start as its end, so
// that its children could name it as their parent while it ran.
func (r *recorder) setEnd(id int64, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end.Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

// writeFile saves the spans as NDJSON, one span per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var sp span
		if err := dec.Decode(&sp); err != nil {
			return nil, fmt.Errorf("reading spans from %s: %w", path, err)
		}
		spans = append(spans, sp)
	}
	return spans, nil
}

// spanReport is what a run's saved spans say: each layer's self time
// per traced operation, and the tracing overhead as the median of the
// traced operations' root spans over the median of the untraced ones.
// An operation's root span is a root whose name starts with op.
type spanReport struct {
	selfS    map[string]float64
	ops      int
	overhead float64
}

func reportSpans(spans []span, op string) (spanReport, error) {
	var traced []span
	var on, off []float64
	for _, sp := range spans {
		if sp.Parent == 0 && strings.HasPrefix(sp.Name, op) {
			d := float64(sp.End - sp.Start)
			if sp.Untraced {
				off = append(off, d)
			} else {
				on = append(on, d)
			}
		}
		if !sp.Untraced {
			traced = append(traced, sp)
		}
	}
	self, err := selfTimes(traced)
	if err != nil {
		return spanReport{}, err
	}
	r := spanReport{selfS: self, ops: len(on)}
	for l := range r.selfS {
		r.selfS[l] /= float64(max(r.ops, 1))
	}
	if len(on) > 0 && len(off) > 0 {
		r.overhead = newDist(on).Median() / newDist(off).Median()
	}
	return r, nil
}

// selfTimes sums each layer's self time in seconds: a span's duration
// minus the part of its interval that its children cover. Children of
// one parent may overlap (two engine workers); their union is what is
// subtracted, clipped to the parent's interval.
func selfTimes(spans []span) (map[string]float64, error) {
	byID := make(map[int64]int, len(spans))
	for i, sp := range spans {
		if sp.End < sp.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", sp.ID, sp.Name)
		}
		byID[sp.ID] = i
	}
	kids := make(map[int64][]span)
	for _, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			return nil, fmt.Errorf("span %d (%s) has unknown parent %d", sp.ID, sp.Name, sp.Parent)
		}
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	self := make(map[string]float64, len(layers))
	for _, sp := range spans {
		self[sp.Layer] += float64(sp.End-sp.Start-covered(sp, kids[sp.ID])) / 1e9
	}
	return self, nil
}

// covered is the length of the union of the children's intervals
// inside the parent's.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}
