package sim

// The typed plane renders a payload's sort key once per distinct
// (sender, payload) per round and reuses the arena view for every later
// Send of that identity. These tests pin the render count and, against
// the reference Runner, the sorted inbox order the reused views produce.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"idonly/internal/ids"
)

// countedPayload renders like benchPayload's Kind field and counts its
// renders in countedRenders.
type countedPayload struct{ K int }

var countedRenders int

func (p countedPayload) AppendSortKey(dst []byte) []byte {
	countedRenders++
	return append(AppendInt(append(dst, '{'), int64(p.K)), '}')
}

func (countedPayload) SortKeyOrdinal() uint32 { return 0x7f02 }

var countedCodec = Codec[countedPayload]{
	Wrap: func(p any) (countedPayload, bool) {
		v, ok := p.(countedPayload)
		return v, ok
	},
	Unwrap: func(m countedPayload) any { return m },
}

// countProc sends the same scripted Sends every round.
type countProc struct {
	id    ids.ID
	sends []SendT[countedPayload]
}

func (p *countProc) ID() ids.ID    { return p.id }
func (p *countProc) Decided() bool { return false }
func (p *countProc) Output() any   { return nil }
func (p *countProc) StepTyped(int, []MsgT[countedPayload]) []SendT[countedPayload] {
	return p.sends
}

// scriptAdv replays fixed boxed Sends from every faulty node.
type scriptAdv []Send

func (a scriptAdv) Step(ids.ID, int, []Message) []Send { return a }

func TestTypedRunnerRendersKeyOncePerSource(t *testing.T) {
	uni := func(to ids.ID, k int) SendT[countedPayload] { return UnicastT(to, countedPayload{K: k}) }
	cases := []struct {
		name       string
		sends      []SendT[countedPayload] // node 1's sends, every round
		adv        scriptAdv               // faulty node 6's sends, every round
		renders    int                     // per round
		delivered  int64                   // per round
		dropped    int64                   // per round
		wantInbox2 []int                   // node 2's payload Ks after the sort, when set
	}{
		{
			name:      "one payload to k peers",
			sends:     []SendT[countedPayload]{uni(2, 5), uni(3, 5), uni(4, 5), uni(5, 5)},
			renders:   1,
			delivered: 4,
		},
		{
			name:      "duplicate send renders nothing new",
			sends:     []SendT[countedPayload]{uni(2, 5), uni(2, 5), uni(3, 5)},
			renders:   1,
			delivered: 2,
			dropped:   1,
		},
		{
			// The render for absent id 42 is released; {10} reuses its
			// arena bytes, so {9} must render afresh to sort after {10}.
			name:       "released render is not cached",
			sends:      []SendT[countedPayload]{uni(42, 9), uni(2, 10), uni(2, 9)},
			renders:    3,
			delivered:  2,
			wantInbox2: []int{10, 9},
		},
		{
			name:      "adversary unicasts share one render",
			adv:       scriptAdv{Unicast(2, countedPayload{K: 7}), Unicast(3, countedPayload{K: 7}), Unicast(4, countedPayload{K: 7})},
			renders:   1,
			delivered: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			procs := []*countProc{{id: 1, sends: tc.sends}, {id: 2}, {id: 3}, {id: 4}, {id: 5}}
			run := NewTypedRunner(Config{MaxRounds: 8}, procs, []ids.ID{6}, tc.adv, countedCodec)
			var prev Metrics
			for round := 1; round <= 3; round++ {
				countedRenders = 0
				run.StepRound()
				m := run.Metrics()
				if countedRenders != tc.renders {
					t.Fatalf("round %d: %d renders, want %d", round, countedRenders, tc.renders)
				}
				if d := m.MessagesDelivered - prev.MessagesDelivered; d != tc.delivered {
					t.Fatalf("round %d: delivered %d, want %d", round, d, tc.delivered)
				}
				if d := m.MessagesDropped - prev.MessagesDropped; d != tc.dropped {
					t.Fatalf("round %d: dropped %d, want %d", round, d, tc.dropped)
				}
				prev = m
				checkTypedKeys(t, run)
				if tc.wantInbox2 != nil {
					pending := run.nxt[run.slot[2]]
					lane := laneBuf[countedPayload]{msgs: slices.Clone(pending.msgs), keys: slices.Clone(pending.keys)}
					lane.sort(run.nxtArena)
					var got []int
					for _, msg := range lane.msgs {
						got = append(got, msg.Payload.K)
					}
					if fmt.Sprint(got) != fmt.Sprint(tc.wantInbox2) {
						t.Fatalf("round %d: node 2 inbox %v, want %v", round, got, tc.wantInbox2)
					}
				}
			}
		})
	}
}

// checkTypedKeys asserts that every pending delivery's arena view holds
// exactly its payload's own rendering.
func checkTypedKeys(t *testing.T, r *TypedRunner[*countProc, countedPayload]) {
	t.Helper()
	saved := countedRenders
	defer func() { countedRenders = saved }()
	for i := range r.idvec {
		if r.faulty[i] {
			b := &r.bnxt[i]
			for j, k := range b.keys {
				want := b.msgs[j].Payload.(countedPayload).AppendSortKey(nil)
				if got := r.nxtArena[k.off : k.off+k.n]; !bytes.Equal(got, want) {
					t.Fatalf("slot %d msg %d: key %q, want %q", i, j, got, want)
				}
			}
			continue
		}
		b := &r.nxt[i]
		for j, k := range b.keys {
			want := b.msgs[j].Payload.AppendSortKey(nil)
			if got := r.nxtArena[k.off : k.off+k.n]; !bytes.Equal(got, want) {
				t.Fatalf("slot %d msg %d: key %q, want %q", i, j, got, want)
			}
		}
	}
}

// ---- Typed vs reference inbox order ------------------------------------

// The golden digests hash only the observer trace of sends, and ring's
// min fold ignores inbox order, so neither pins the sorted inbox order
// on the sparse unicast path. FuzzTypedInboxOrder does: both runners
// execute one scripted system and every node's received (from, payload)
// sequence must match round for round.

// Id, kind and value pools of mixed decimal width, so byte order and
// numeric order disagree ("10" < "9"). Pool ids left unchosen by a
// script are absent targets.
var (
	fuzzIDs    = []ids.ID{1, 2, 7, 9, 10, 11, 19, 20, 99, 100, 101, 123, 999, 1000, 1001, 12345, 5}
	fuzzKinds  = []int{9, 10, 1, 99, 100, 7}
	fuzzValues = []float64{1, 0.5, 10, 2}
)

const fuzzRounds = 4

// inboxScript is one decoded fuzz input: the node ids (the last nf
// faulty) and every node's Sends per round on both planes.
type inboxScript struct {
	ids    []ids.ID
	nf     int
	sendsT [fuzzRounds][][]SendT[benchPayload]
	sends  [fuzzRounds][][]Send
}

// decodeInboxScript reads a script byte by byte; exhausted input reads
// as zero bytes, which makes every later node send nothing.
func decodeInboxScript(data []byte) *inboxScript {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%9
	s := &inboxScript{nf: min(next()%3, n-1)}
	used := make([]bool, len(fuzzIDs))
	for range n {
		i := next() % len(fuzzIDs)
		for used[i] {
			i = (i + 1) % len(fuzzIDs)
		}
		used[i] = true
		s.ids = append(s.ids, fuzzIDs[i])
	}
	for r := range fuzzRounds {
		s.sendsT[r] = make([][]SendT[benchPayload], n)
		s.sends[r] = make([][]Send, n)
		for k := range n {
			for range next() % 5 {
				t, p := next(), next()
				to := fuzzIDs[t%len(fuzzIDs)]
				if t%16 == 15 {
					to = Broadcast
				}
				m := benchPayload{Kind: fuzzKinds[p%len(fuzzKinds)], Value: fuzzValues[p/len(fuzzKinds)%len(fuzzValues)]}
				s.sendsT[r][k] = append(s.sendsT[r][k], UnicastT(to, m))
				s.sends[r][k] = append(s.sends[r][k], Unicast(to, m))
			}
		}
	}
	return s
}

// inboxLog appends one line per received message.
type inboxLog struct{ buf []byte }

func (l *inboxLog) record(round int, to ids.ID, from ids.ID, payload any) {
	l.buf = fmt.Appendf(l.buf, "r%d %d<-%d %v\n", round, to, from, payload)
}

// scriptNode is a correct node on both planes: it logs its inbox and
// returns its scripted Sends.
type scriptNode struct {
	id   ids.ID
	k    int
	s    *inboxScript
	logs *inboxLog
}

func (p *scriptNode) ID() ids.ID    { return p.id }
func (p *scriptNode) Decided() bool { return false }
func (p *scriptNode) Output() any   { return nil }
func (p *scriptNode) Step(round int, inbox []Message) []Send {
	for _, m := range inbox {
		p.logs.record(round, p.id, m.From, m.Payload)
	}
	return p.s.sends[round-1][p.k]
}
func (p *scriptNode) StepTyped(round int, inbox []MsgT[benchPayload]) []SendT[benchPayload] {
	for _, m := range inbox {
		p.logs.record(round, p.id, m.From, m.Payload)
	}
	return p.s.sendsT[round-1][p.k]
}

// scriptFaulty logs the faulty nodes' boxed inboxes and replays their
// scripted Sends through the adversary path.
type scriptFaulty struct {
	s     *inboxScript
	slots map[ids.ID]int
	logs  *inboxLog
}

func (a *scriptFaulty) Step(node ids.ID, round int, inbox []Message) []Send {
	for _, m := range inbox {
		a.logs.record(round, node, m.From, m.Payload)
	}
	return a.s.sends[round-1][a.slots[node]]
}

// runInboxScript executes the script on one plane and returns its
// inbox log plus the delivery counters.
func runInboxScript(s *inboxScript, typed bool) string {
	logs := &inboxLog{}
	nc := len(s.ids) - s.nf
	adv := &scriptFaulty{s: s, slots: map[ids.ID]int{}, logs: logs}
	for k := nc; k < len(s.ids); k++ {
		adv.slots[s.ids[k]] = k
	}
	faulty := s.ids[nc:]
	nodes := make([]*scriptNode, nc)
	for k := range nodes {
		nodes[k] = &scriptNode{id: s.ids[k], k: k, s: s, logs: logs}
	}
	cfg := Config{MaxRounds: fuzzRounds}
	var m Metrics
	if typed {
		m = NewTypedRunner(cfg, nodes, faulty, adv, benchCodec).Run(nil)
	} else {
		procs := make([]Process, nc)
		for k, p := range nodes {
			procs[k] = p
		}
		m = NewRunner(cfg, procs, faulty, adv).Run(nil)
	}
	return fmt.Sprintf("%sdelivered=%d dropped=%d", logs.buf, m.MessagesDelivered, m.MessagesDropped)
}

// The seed corpus lives in testdata/fuzz/FuzzTypedInboxOrder;
// released-render holds the case where node 1 sends {9 1} to absent id
// 7, then {10 1} and {9 1} to node 2, which must see {10 1} first.
func FuzzTypedInboxOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeInboxScript(data)
		ref, typed := runInboxScript(s, false), runInboxScript(s, true)
		if ref != typed {
			t.Fatalf("typed inbox order diverged from reference\nreference:\n%s\ntyped:\n%s", ref, typed)
		}
	})
}
