package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"time"

	"idonly/internal/engine"
	"idonly/internal/service"
)

// Every input a workload feeds the program is drawn here from the
// benchmark seed. Each purpose has its own stream, so a change to one
// purpose's draws never shifts another's inputs.
const (
	streamGrid = iota + 1
	streamRing
	streamHot
	streamCold
	streamDup
	streamArrivals
	streamClosed // + worker index
)

func stream(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, purpose))
}

// scenarioSeed keeps seeds below 2^53 so any JSON reader holds them
// exactly.
func scenarioSeed(r *rand.Rand) uint64 { return r.Uint64() >> 11 }

// distinctSeeds draws n seeds that are distinct and outside avoid.
func distinctSeeds(r *rand.Rand, n int, avoid func(uint64) bool) []uint64 {
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := scenarioSeed(r)
		if seen[s] || (avoid != nil && avoid(s)) {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// gridColdGrid is the small preset's shape (6 protocols × {silent,
// split} × n∈{7,14} × {static, full churn} × 6 seeds = 288 scenarios)
// with its seeds drawn from the benchmark seed.
func gridColdGrid(seed uint64) (engine.Grid, error) {
	g, err := engine.PresetGrid("small")
	if err != nil {
		return engine.Grid{}, err
	}
	g.Name = "grid-cold"
	g.Seeds = distinctSeeds(stream(seed, streamGrid), len(g.Seeds), nil)
	return g, nil
}

const (
	ringN     = 10000
	ringSeeds = 4
)

// ringSpecs is one ring-flood sweep: the min-id flood at n = 10 000, no
// adversary, four seeds.
func ringSpecs(seed uint64) []engine.Scenario {
	seeds := distinctSeeds(stream(seed, streamRing), ringSeeds, nil)
	specs := make([]engine.Scenario, len(seeds))
	for i, s := range seeds {
		specs[i] = engine.Scenario{Protocol: engine.ProtoRing, Adversary: engine.AdvNone, N: ringN, Seed: s}
	}
	return specs
}

// The serve-mix traffic shape: the CI loadgen job's mix, offered open
// loop at a fixed Poisson rate.
const (
	hotGrids     = 128 // warmed grids; 4 scenarios each = 512 results, twice the LRU
	hotGridSize  = 4
	hotShare     = 0.70
	dupShare     = 0.15 // the rest is cold
	offeredRPS   = 600
	dupEpoch     = 2 * time.Second // open loop: one shared dup grid per epoch of due time
	dupEveryReqs = 256             // closed loop: one shared dup grid per this many requests of a worker
	coldSpan     = 1 << 32         // cold seeds are coldBase + k; hot seeds avoid the whole span
)

type class int

const (
	classHot class = iota
	classDup
	classCold
)

func (c class) String() string { return [...]string{"hot", "dup", "cold"}[c] }

// request is one generated sweep request. For a hot request idx is the
// warmed grid it replays; for cold and dup it is the one scenario seed
// the response must carry.
type request struct {
	class class
	idx   int
	seed  uint64
	body  []byte
}

// arrival is a request of the open-loop schedule, due at an offset
// from the start of the phase.
type arrival struct {
	due time.Duration
	request
}

// serveInputs is everything serve-mix sends.
type serveInputs struct {
	hot      [][]byte // request bodies of the warmed grids
	hotSeeds [][]uint64
	coldBase uint64
	dupBase  uint64
}

func newServeInputs(seed uint64) serveInputs {
	in := serveInputs{
		coldBase: scenarioSeed(stream(seed, streamCold)) &^ (coldSpan - 1),
		dupBase:  scenarioSeed(stream(seed, streamDup)),
	}
	inCold := func(s uint64) bool { return s >= in.coldBase && s < in.coldBase+coldSpan }
	seeds := distinctSeeds(stream(seed, streamHot), hotGrids*hotGridSize, inCold)
	for i := 0; i < hotGrids; i++ {
		s := seeds[i*hotGridSize : (i+1)*hotGridSize]
		in.hotSeeds = append(in.hotSeeds, s)
		in.hot = append(in.hot, sweepBody("hot", engine.ProtoConsensus, s))
	}
	return in
}

// sweepBody renders a POST /v1/sweep body for one-cell grid at n = 7
// under the silent adversary. Dup grids use another protocol than cold
// ones, so their digests never meet.
func sweepBody(name, proto string, seeds []uint64) []byte {
	b, err := json.Marshal(service.SweepRequest{Grid: &engine.Grid{
		Name: name, Protocols: []string{proto}, Adversaries: []string{engine.AdvSilent},
		Sizes: []int{7}, Seeds: seeds,
	}})
	if err != nil {
		panic(err) // a fixed struct of strings and numbers always marshals
	}
	return b
}

// mix draws requests of the 70/15/15 mix. Cold seeds are coldBase +
// lane + k·lanes, so every lane (the open loop and each closed-loop
// worker) sends seeds no other lane and no earlier request sent.
type mix struct {
	in    *serveInputs
	r     *rand.Rand
	lane  uint64
	lanes uint64
	cold  uint64
}

func (m *mix) next(dupEpochIdx uint64) request {
	switch u := m.r.Float64(); {
	case u < hotShare:
		i := m.r.IntN(hotGrids)
		return request{class: classHot, idx: i, body: m.in.hot[i]}
	case u < hotShare+dupShare:
		s := m.in.dupBase + dupEpochIdx
		return request{class: classDup, seed: s, body: sweepBody("dup", engine.ProtoRBroadcast, []uint64{s})}
	default:
		s := m.in.coldBase + m.lane + m.cold*m.lanes
		m.cold++
		return request{class: classCold, seed: s, body: sweepBody("cold", engine.ProtoConsensus, []uint64{s})}
	}
}

// closedWorkers is the client's connection count: the two cores the
// workloads were sized on, with all load coming from one process.
const closedWorkers = 2

func newMix(in *serveInputs, seed uint64, lane uint64) *mix {
	return &mix{in: in, r: stream(seed, streamClosed+lane), lane: lane, lanes: 1 + closedWorkers}
}

// openSchedule is the open-loop phase: Poisson arrivals at offeredRPS
// for d, each carrying a request of the mix. The dup grid changes with
// the due time's epoch.
func openSchedule(in *serveInputs, seed uint64, d time.Duration) []arrival {
	r := stream(seed, streamArrivals)
	m := &mix{in: in, r: r, lane: 0, lanes: 1 + closedWorkers}
	var out []arrival
	var t float64 // seconds
	for {
		t += -math.Log(1-r.Float64()) / offeredRPS
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, arrival{due: due, request: m.next(uint64(due / dupEpoch))})
	}
}
