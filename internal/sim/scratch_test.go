package sim

// Scratch-retention bounds (scratch.go): one flood round must not pin
// its peak arena, duplicate-filter table or intern map for the rest of
// a long run. These are allocator tests, so they live inside the
// package and inspect the runner's buffers directly — nothing here is
// observable through digests or canonical reports.

import (
	"fmt"
	"testing"

	"idonly/internal/ids"
)

func TestScratchGaugeTracksHighWater(t *testing.T) {
	var g scratchGauge
	g.observe(1000)
	if g.hw != 1000 {
		t.Fatalf("hw = %d after observe(1000), want 1000", g.hw)
	}
	g.observe(5000) // growth is immediate
	if g.hw != 5000 {
		t.Fatalf("hw = %d after observe(5000), want 5000", g.hw)
	}
	for i := 0; i < 100; i++ { // decay is gradual
		g.observe(0)
	}
	if g.hw > 5 {
		t.Fatalf("hw = %d after 100 idle rounds, want near 0", g.hw)
	}
	if g.oversized(2*arenaRetainFloor, arenaRetainFloor) != true {
		t.Fatal("capacity above floor and 4x high-water should be oversized")
	}
	if g.oversized(arenaRetainFloor, arenaRetainFloor) {
		t.Fatal("capacity at the floor is never oversized")
	}
	g.observe(1 << 20)
	if g.oversized(2<<20, arenaRetainFloor) {
		t.Fatal("capacity within 4x of high-water is not oversized")
	}
	if got := g.retainTarget(arenaRetainFloor); got != 2<<20 {
		t.Fatalf("retainTarget = %d, want 2*hw = %d", got, 2<<20)
	}
}

// bigKeyPayload renders a sort key of pad+O(1) bytes, unique per seq.
type bigKeyPayload struct {
	seq int
	pad int
}

const ordScratchTest uint32 = 0xffff0001 // test-local, outside real ranges

func (p bigKeyPayload) SortKeyOrdinal() uint32 { return ordScratchTest }
func (p bigKeyPayload) AppendSortKey(dst []byte) []byte {
	dst = append(dst, fmt.Sprintf("{%d ", p.seq)...)
	for i := 0; i < p.pad; i++ {
		dst = append(dst, 'x')
	}
	return append(dst, '}')
}

// floodProc broadcasts perRound distinct payloads for the first
// floodRounds rounds, then goes quiet.
type floodProc struct {
	id          ids.ID
	floodRounds int
	perRound    int
	pad         int
}

func (p *floodProc) ID() ids.ID    { return p.id }
func (p *floodProc) Decided() bool { return false }
func (p *floodProc) Output() any   { return nil }
func (p *floodProc) Step(round int, _ []Message) []Send {
	if round > p.floodRounds {
		return nil
	}
	out := make([]Send, 0, p.perRound)
	for i := 0; i < p.perRound; i++ {
		seq := int(p.id)*1_000_000 + round*10_000 + i
		out = append(out, BroadcastPayload(bigKeyPayload{seq: seq, pad: p.pad}))
	}
	return out
}

func floodRunner(nProcs, floodRounds, perRound, pad int) (*Runner, []Process) {
	var procs []Process
	for i := 0; i < nProcs; i++ {
		procs = append(procs, &floodProc{id: ids.ID(i + 1), floodRounds: floodRounds, perRound: perRound, pad: pad})
	}
	return NewRunner(Config{MaxRounds: 1 << 20}, procs, nil, nil), procs
}

func TestRunnerArenaShrinksAfterFlood(t *testing.T) {
	// 4 procs x 4 sends x 16KiB keys = ~256KiB of arena per flood round.
	r, _ := floodRunner(4, 3, 4, 16<<10)
	for i := 0; i < 3; i++ {
		r.StepRound()
	}
	peak := cap(r.curArena)
	if c := cap(r.nxtArena); c > peak {
		peak = c
	}
	if peak < 4*arenaRetainFloor {
		t.Fatalf("flood arena peaked at %d, too small to exercise the trim (floor %d)", peak, arenaRetainFloor)
	}
	for i := 0; i < 60; i++ { // quiet rounds: high-water decays, trim fires
		r.StepRound()
	}
	for _, c := range []int{cap(r.curArena), cap(r.nxtArena)} {
		if c >= peak/2 {
			t.Fatalf("arena capacity %d retained after 60 quiet rounds (flood peak %d)", c, peak)
		}
	}
}

func TestRunnerDedupAndInternShrinkAfterFlood(t *testing.T) {
	// The filter holds one entry per message source: 4 procs x 2400
	// distinct broadcasts = 9600 entries per round, above
	// dedupRetainFloor; as many distinct interned keys per round cross
	// internRetainMax within the flood.
	r, _ := floodRunner(4, 30, 2400, 4)
	for i := 0; i < 30; i++ {
		r.StepRound()
	}
	if r.dedup.indexAlloc <= dedupRetainFloor {
		t.Fatalf("flood sized the filter to %d entries, too small to exercise the trim (floor %d)", r.dedup.indexAlloc, dedupRetainFloor)
	}
	for i := 0; i < 60; i++ {
		r.StepRound()
	}
	if r.dedup.indexAlloc > dedupRetainFloor {
		t.Fatalf("duplicate filter still sized for %d entries after 60 quiet rounds (floor %d)", r.dedup.indexAlloc, dedupRetainFloor)
	}
	if n := len(r.intern); n > internRetainMax {
		t.Fatalf("intern map holds %d keys, cap is %d", n, internRetainMax)
	}
}

// typedFloodWire is bigKeyPayload for the typed plane.
type typedFloodWire struct {
	Seq int
	Pad int
}

func (w typedFloodWire) SortKeyOrdinal() uint32 { return ordScratchTest + 1 }
func (w typedFloodWire) AppendSortKey(dst []byte) []byte {
	dst = append(dst, fmt.Sprintf("{%d ", w.Seq)...)
	for i := 0; i < w.Pad; i++ {
		dst = append(dst, 'x')
	}
	return append(dst, '}')
}

type typedFloodProc struct {
	id          ids.ID
	floodRounds int
	perRound    int
	pad         int
}

func (p *typedFloodProc) ID() ids.ID    { return p.id }
func (p *typedFloodProc) Decided() bool { return false }
func (p *typedFloodProc) Output() any   { return nil }
func (p *typedFloodProc) StepTyped(round int, _ []MsgT[typedFloodWire]) []SendT[typedFloodWire] {
	if round > p.floodRounds {
		return nil
	}
	out := make([]SendT[typedFloodWire], 0, p.perRound)
	for i := 0; i < p.perRound; i++ {
		seq := int(p.id)*1_000_000 + round*10_000 + i
		out = append(out, BroadcastT(typedFloodWire{Seq: seq, Pad: p.pad}))
	}
	return out
}

func TestTypedRunnerArenaShrinksAfterFlood(t *testing.T) {
	var procs []*typedFloodProc
	for i := 0; i < 4; i++ {
		procs = append(procs, &typedFloodProc{id: ids.ID(i + 1), floodRounds: 3, perRound: 4, pad: 16 << 10})
	}
	codec := Codec[typedFloodWire]{
		Wrap:   func(p any) (typedFloodWire, bool) { v, ok := p.(typedFloodWire); return v, ok },
		Unwrap: func(m typedFloodWire) any { return m },
	}
	r := NewTypedRunner(Config{MaxRounds: 1 << 20}, procs, nil, nil, codec)
	for i := 0; i < 3; i++ {
		r.StepRound()
	}
	peak := cap(r.curArena)
	if c := cap(r.nxtArena); c > peak {
		peak = c
	}
	if peak < 4*arenaRetainFloor {
		t.Fatalf("flood arena peaked at %d, too small to exercise the trim (floor %d)", peak, arenaRetainFloor)
	}
	for i := 0; i < 60; i++ {
		r.StepRound()
	}
	for _, c := range []int{cap(r.curArena), cap(r.nxtArena)} {
		if c >= peak/2 {
			t.Fatalf("typed arena capacity %d retained after 60 quiet rounds (flood peak %d)", c, peak)
		}
	}
}
