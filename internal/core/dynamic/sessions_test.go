package dynamic

// Session bookkeeping: a node keeps a session only while it can still
// matter — running, or not yet final — so a long run holds about one
// finality window of machines, not one per round. The chain it orders
// is pinned by digest, so the pruning cannot change a single event.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"idonly/internal/ids"
	"idonly/internal/sim"
)

// staggeredFounders returns n founders of one static system, node i
// witnessing one event in every round r ≡ i (mod 4) up to rounds.
func staggeredFounders(n, rounds int) ([]*Node, []sim.Process) {
	all := ids.Sparse(ids.NewRand(uint64(n)), n)
	var nodes []*Node
	var procs []sim.Process
	for i, id := range all {
		w := make(map[int][]string)
		for r := 1; r <= rounds; r++ {
			if r%4 == i%4 {
				w[r] = []string{fmt.Sprintf("e%d-%d", i, r)}
			}
		}
		nd := New(Config{ID: id, Founders: all, Witness: w})
		nodes = append(nodes, nd)
		procs = append(procs, nd)
	}
	return nodes, procs
}

func TestSessionsBoundedByFinalityWindow(t *testing.T) {
	const n, rounds = 14, 200
	nodes, procs := staggeredFounders(n, rounds)
	sim.NewRunner(sim.Config{MaxRounds: rounds}, procs, nil, nil).Run(nil)
	for _, nd := range nodes {
		if nd.HarvestGap() {
			t.Fatalf("node %d harvested an unfinished session", nd.ID())
		}
		// Every kept session is either not yet final (start in
		// (finalUpTo, r]) or final but still running (a harvest gap).
		harvestedLive := 0
		for _, s := range nd.live {
			if s.start <= nd.finalUpTo {
				harvestedLive++
			}
		}
		window := nd.r - nd.finalUpTo
		if got := len(nd.sessions); got > window+harvestedLive {
			t.Fatalf("node %d keeps %d sessions after %d rounds; finality window %d, harvested live %d",
				nd.ID(), got, rounds, window, harvestedLive)
		}
		for start, s := range nd.sessions { //lint:ordered per-entry check, order-free
			if s.stopped && start <= nd.finalUpTo {
				t.Fatalf("node %d keeps session %d, stopped and harvested", nd.ID(), start)
			}
		}
	}
	// The chain the pruned node orders is the one the unpruned node
	// ordered: same events, same order.
	h := fnv.New64a()
	for _, e := range nodes[0].chain {
		fmt.Fprintf(h, "%d %d %s\n", e.Session, e.Node, e.M)
	}
	const want = "ad76653d1a3546d0 564 162"
	if got := fmt.Sprintf("%016x %d %d", h.Sum64(), len(nodes[0].chain), nodes[0].finalUpTo); got != want {
		t.Fatalf("chain digest, length, final round = %s, want %s", got, want)
	}
}

// BenchmarkDynamicRounds measures Algorithm 6 on the reference runner:
// 14 founders, 40 rounds (past the first finality horizon), every node
// witnessing one event every fourth round. Node and runner construction
// is outside the timer.
func BenchmarkDynamicRounds(b *testing.B) {
	const n, rounds = 14, 40
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		_, procs := staggeredFounders(n, rounds)
		r := sim.NewRunner(sim.Config{MaxRounds: rounds}, procs, nil, nil)
		b.StartTimer()
		r.Run(nil)
	}
}
