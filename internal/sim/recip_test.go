package sim

// The reference Runner's per-source duplicate filter (recip.go) against
// the model's rule written out naively: a map of every delivered
// (to, from, identity) triple, where identity is (type ordinal, key
// bytes) for a registered payload and the boxed payload otherwise, and
// a sort key rendered afresh for every delivered message. Both execute
// one scripted system; every node's received (from, payload) sequence
// must match round for round, together with the delivered and dropped
// counts.

import (
	"fmt"
	"sort"
	"testing"

	"idonly/internal/ids"
)

// Unregistered payloads for the filter script: plainA and plainB print
// the same %v but are different types; the two *plainA pointers print
// the same %v but are different values; plainF's +0 and -0 are equal
// values that print differently, so each Send of either renders its own
// key; plainC prints exactly like the
// registered benchPayload{9, 1}.
type (
	plainA struct{ K int }
	plainB struct{ K int }
	plainC struct {
		K int
		V float64
	}
	plainF struct{ X float64 }
)

// optOutPayload implements SortKeyer but returns ordinal 0: a key
// without fmt, identity by interface equality.
type optOutPayload struct{ K int }

func (p optOutPayload) AppendSortKey(dst []byte) []byte {
	return append(AppendInt(append(dst, '{'), int64(p.K)), '}')
}
func (optOutPayload) SortKeyOrdinal() uint32 { return 0 }

var (
	negZero       = func() float64 { z := 0.0; return -z }()
	filterPtrA1   = &plainA{K: 9}
	filterPtrA2   = &plainA{K: 9}
	filterPayPool = []any{
		benchPayload{Kind: 9, Value: 1},
		benchPayload{Kind: 10, Value: 1},
		benchPayload{Kind: 9, Value: 0.5},
		plainA{K: 9},
		plainB{K: 9},
		plainC{K: 9, V: 1},
		filterPtrA1,
		filterPtrA2,
		plainF{X: 0},
		plainF{X: negZero},
		optOutPayload{K: 9},
		optOutPayload{K: 10},
		plainF{X: -1}, // sorts between plainF{-0} and plainF{0}
	}
)

const filterRounds = 4

// recordFilter logs one received message with its pool index, so the
// log tells apart the payloads that print alike.
func recordFilter(l *inboxLog, round int, to, from ids.ID, payload any) {
	pool := -1
	for i, p := range filterPayPool {
		if p == payload {
			pool = i
			break
		}
	}
	l.buf = fmt.Appendf(l.buf, "r%d %d<-%d %v #%d\n", round, to, from, payload, pool)
}

// filterScript is one decoded fuzz input: the node ids (the last nf
// faulty) and every node's Sends per round.
type filterScript struct {
	ids   []ids.ID
	nf    int
	sends [filterRounds][][]Send
}

// decodeFilterScript reads a script byte by byte; exhausted input
// reads as zero bytes, which makes every later node send nothing. Of a
// Send's target byte, 15 (mod 16) broadcasts, 14 unicasts to a pool id
// and then broadcasts the same payload, anything else unicasts; pool
// ids left out of the system are absent targets.
func decodeFilterScript(data []byte) *filterScript {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%9
	s := &filterScript{nf: min(next()%3, n-1)}
	used := make([]bool, len(fuzzIDs))
	for range n {
		i := next() % len(fuzzIDs)
		for used[i] {
			i = (i + 1) % len(fuzzIDs)
		}
		used[i] = true
		s.ids = append(s.ids, fuzzIDs[i])
	}
	for r := range filterRounds {
		s.sends[r] = make([][]Send, n)
		for k := range n {
			for range next() % 6 {
				t, p := next(), filterPayPool[next()%len(filterPayPool)]
				to := fuzzIDs[(t/16)%len(fuzzIDs)]
				switch t % 16 {
				case 15:
					s.sends[r][k] = append(s.sends[r][k], BroadcastPayload(p))
				case 14:
					s.sends[r][k] = append(s.sends[r][k], Unicast(to, p), BroadcastPayload(p))
				default:
					s.sends[r][k] = append(s.sends[r][k], Unicast(to, p))
				}
			}
		}
	}
	return s
}

// filterNode is a correct scripted node: it logs its inbox and returns
// its scripted Sends.
type filterNode struct {
	id   ids.ID
	k    int
	s    *filterScript
	logs *inboxLog
}

func (p *filterNode) ID() ids.ID    { return p.id }
func (p *filterNode) Decided() bool { return false }
func (p *filterNode) Output() any   { return nil }
func (p *filterNode) Step(round int, inbox []Message) []Send {
	for _, m := range inbox {
		recordFilter(p.logs, round, p.id, m.From, m.Payload)
	}
	return p.s.sends[round-1][p.k]
}

// filterAdv logs the faulty nodes' inboxes and replays their scripts.
type filterAdv struct {
	s     *filterScript
	slots map[ids.ID]int
	logs  *inboxLog
}

func (a *filterAdv) Step(node ids.ID, round int, inbox []Message) []Send {
	for _, m := range inbox {
		recordFilter(a.logs, round, node, m.From, m.Payload)
	}
	return a.s.sends[round-1][a.slots[node]]
}

// runFilterScript executes the script on the reference Runner.
func runFilterScript(s *filterScript) string {
	logs := &inboxLog{}
	nc := len(s.ids) - s.nf
	adv := &filterAdv{s: s, slots: map[ids.ID]int{}, logs: logs}
	for k := nc; k < len(s.ids); k++ {
		adv.slots[s.ids[k]] = k
	}
	procs := make([]Process, nc)
	for k := range procs {
		procs[k] = &filterNode{id: s.ids[k], k: k, s: s, logs: logs}
	}
	m := NewRunner(Config{MaxRounds: filterRounds}, procs, s.ids[nc:], adv).Run(nil)
	return fmt.Sprintf("%sdelivered=%d dropped=%d", logs.buf, m.MessagesDelivered, m.MessagesDropped)
}

// naiveIdentity is the per-recipient filter key of the model.
type naiveIdentity struct {
	to, from ids.ID
	ord      uint32
	key      string
	payload  any
}

// naiveEntry is one delivered message with its own rendered key.
type naiveEntry struct {
	from    ids.ID
	payload any
	key     string
}

// naiveInbox sorts with the runner's comparator — sender, then key
// bytes — through the same unstable sort.Sort, so equal keys (distinct
// identities that render alike) land in the same order on both sides.
type naiveInbox []naiveEntry

func (b naiveInbox) Len() int { return len(b) }
func (b naiveInbox) Less(i, j int) bool {
	if b[i].from != b[j].from {
		return b[i].from < b[j].from
	}
	return b[i].key < b[j].key
}
func (b naiveInbox) Swap(i, j int) { b[i], b[j] = b[j], b[i] }

// naiveFilterScript executes the script under the model's rule with no
// sharing of any kind: one filter probe and one render per delivery.
func naiveFilterScript(s *filterScript) string {
	logs := &inboxLog{}
	order := make([]int, len(s.ids)) // script indexes in increasing id order
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(i, j int) bool { return s.ids[order[i]] < s.ids[order[j]] })
	present := make(map[ids.ID]bool, len(s.ids))
	for _, id := range s.ids {
		present[id] = true
	}
	inbox := map[ids.ID]naiveInbox{}
	var delivered, dropped int64
	for r := range filterRounds {
		next := map[ids.ID]naiveInbox{}
		seen := map[naiveIdentity]bool{}
		for _, k := range order {
			from := s.ids[k]
			cur := inbox[from]
			sort.Sort(cur)
			for _, e := range cur {
				recordFilter(logs, r+1, from, e.from, e.payload)
			}
			for _, snd := range s.sends[r][k] {
				var tos []ids.ID
				if snd.To == Broadcast {
					for _, j := range order {
						tos = append(tos, s.ids[j])
					}
				} else if present[snd.To] {
					tos = []ids.ID{snd.To}
				}
				for _, to := range tos {
					key := fmt.Sprint(snd.Payload)
					id := naiveIdentity{to: to, from: from, payload: snd.Payload}
					if sk, ok := snd.Payload.(SortKeyer); ok {
						key = string(sk.AppendSortKey(nil))
						if ord := sk.SortKeyOrdinal(); ord != 0 {
							id = naiveIdentity{to: to, from: from, ord: ord, key: key}
						}
					}
					if seen[id] {
						dropped++
						continue
					}
					seen[id] = true
					next[to] = append(next[to], naiveEntry{from: from, payload: snd.Payload, key: key})
					delivered++
				}
			}
		}
		inbox = next
	}
	return fmt.Sprintf("%sdelivered=%d dropped=%d", logs.buf, delivered, dropped)
}

// The seed corpus lives in testdata/fuzz/FuzzRunnerDedupFilter.
func FuzzRunnerDedupFilter(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeFilterScript(data)
		got, want := runFilterScript(s), naiveFilterScript(s)
		if got != want {
			t.Fatalf("runner inboxes diverged from the naive filter\nnaive:\n%s\nrunner:\n%s", want, got)
		}
	})
}

// echoTwiceProc broadcasts the same payload twice every round: the
// second copy is a duplicate at every recipient.
type echoTwiceProc struct{ id ids.ID }

func (p *echoTwiceProc) ID() ids.ID    { return p.id }
func (p *echoTwiceProc) Decided() bool { return false }
func (p *echoTwiceProc) Output() any   { return nil }
func (p *echoTwiceProc) Step(int, []Message) []Send {
	m := BroadcastPayload(benchPayload{Kind: int(p.id)})
	return []Send{m, m}
}

// Joins grow the slot count past one bitmap word between rounds: the
// recipient bitmaps pooled at 60 slots are one word long and must not
// be reused for a 70-slot round.
func TestRunnerFilterFollowsMembershipGrowth(t *testing.T) {
	var procs []Process
	for i := 1; i <= 60; i++ {
		procs = append(procs, &echoTwiceProc{id: ids.ID(2 * i)})
	}
	r := NewRunner(Config{MaxRounds: 8}, procs, nil, nil)
	for i := 1; i <= 10; i++ {
		r.ScheduleJoin(3, &echoTwiceProc{id: ids.ID(2*i + 1)})
	}
	var prev Metrics
	for round := 1; round <= 5; round++ {
		r.StepRound()
		n := int64(len(r.Active()))
		m := r.Metrics()
		if d := m.MessagesDelivered - prev.MessagesDelivered; d != n*n {
			t.Fatalf("round %d: delivered %d, want %d", round, d, n*n)
		}
		if d := m.MessagesDropped - prev.MessagesDropped; d != n*n {
			t.Fatalf("round %d: dropped %d, want %d", round, d, n*n)
		}
		prev = m
	}
}

// fanProc unicasts one payload to every peer, then to every peer again
// in reverse order: the set outgrows its vec on the 33rd recipient and
// every second-pass copy is a duplicate.
type fanProc struct {
	id    ids.ID
	peers []ids.ID
}

func (p *fanProc) ID() ids.ID    { return p.id }
func (p *fanProc) Decided() bool { return false }
func (p *fanProc) Output() any   { return nil }
func (p *fanProc) Step(int, []Message) []Send {
	var out []Send
	for _, to := range p.peers {
		out = append(out, Unicast(to, benchPayload{Kind: 1}))
	}
	for k := len(p.peers) - 1; k >= 0; k-- {
		out = append(out, Unicast(p.peers[k], benchPayload{Kind: 1}))
	}
	return out
}

func TestRunnerFilterUnicastOutgrowsVec(t *testing.T) {
	var peers []ids.ID
	for i := 1; i <= 70; i++ {
		peers = append(peers, ids.ID(i))
	}
	procs := []Process{&fanProc{id: 1, peers: peers}}
	for _, id := range peers[1:] {
		procs = append(procs, &fanProc{id: id})
	}
	m := NewRunner(Config{MaxRounds: 3}, procs, nil, nil).Run(nil)
	if m.MessagesDelivered != 3*70 || m.MessagesDropped != 3*70 {
		t.Fatalf("delivered %d, dropped %d; want %d each", m.MessagesDelivered, m.MessagesDropped, 3*70)
	}
}
