// Package sim is a deterministic, lock-step synchronous message-passing
// simulator for the id-only model of the paper.
//
// The model (paper §IV): computation proceeds in rounds. In each round a
// node receives the messages sent to it in the previous round, computes,
// and sends messages to be consumed in the next round. A node can
// broadcast to all nodes (including ones it has never heard from) or
// unicast to a node it already heard from. The sender identifier is
// attached by the network — a Byzantine node cannot forge its own id on
// a direct message, but it can lie arbitrarily inside payloads (e.g.
// claim echoes from non-existent nodes). Duplicate messages from the
// same node within one round are discarded.
//
// The simulator is single-goroutine per round-step and fully
// deterministic: participants are always iterated in increasing id
// order and all randomness comes from seeded ids.Rand generators owned
// by the caller.
//
// Delivery runs on a flat message plane: all per-node runner state
// lives in one node table sorted by id, indexed through a slot map, so
// broadcast fan-out, the destination-present check and per-round
// iteration are O(1) array operations. Inbox buffers, their sort keys
// and the duplicate filter are pooled and reused across rounds; each
// message's deterministic sort key is computed at delivery time
// (shared by all recipients of a Send) instead of once per comparison
// inside the inbox sort.
//
// The delivery path is reflection-free for payload types implementing
// SortKeyer (see sortkey.go): key bytes are appended to a pooled,
// double-buffered per-runner arena (inbox key tables are offset/length
// views into it), and the per-source duplicate filter (recip.go) is
// keyed by (sender, type ordinal, interned key bytes) instead of
// hashing boxed interface values. Payloads that do not implement
// SortKeyer fall back to fmt.Append and interface-identity
// deduplication — the original semantics, byte for byte. The schedule
// — traces, metrics, decided rounds — is bit-identical either way;
// golden_test.go pins it per protocol and fallback_test.go pins the
// unregistered path.
package sim

import (
	"bytes"
	"fmt"
	"sort"

	"idonly/internal/ids"
)

// Broadcast is the destination address meaning "all participants".
const Broadcast ids.ID = 0

// Message is a message as received: the network has stamped the true
// sender identifier. Payload values must be comparable Go values
// (structs without slices/maps), because the per-round duplicate filter
// and the protocols' witness sets use them as map keys.
type Message struct {
	From    ids.ID
	Payload any
}

// Send is a message as submitted by a process: a destination and a
// payload. The runner stamps the sender.
type Send struct {
	To      ids.ID // Broadcast or a specific node id
	Payload any
}

// BroadcastPayload is a convenience constructor for a broadcast Send.
func BroadcastPayload(p any) Send { return Send{To: Broadcast, Payload: p} }

// Unicast is a convenience constructor for a direct Send.
func Unicast(to ids.ID, p any) Send { return Send{To: to, Payload: p} }

// Process is a correct protocol participant.
//
// Step is called exactly once per round with the (deduplicated) inbox
// of messages sent to the process in the previous round; round numbers
// start at 1 and the round-1 inbox is empty. Step returns the messages
// to send in this round. After Decided reports true the runner stops
// calling Step and the node is silent (the paper's protocols terminate
// and stop sending; their substitution rules keep the remaining nodes'
// thresholds satisfiable).
//
// The inbox slice is owned by the runner and reused across rounds:
// Step must not retain it (or subslices of it) past the call. Payload
// values may be kept — they are immutable by convention.
//
// Symmetrically, the returned send slice is owned by the process: the
// runner consumes it before the process's next Step, so a process may
// back it with scratch it reuses across rounds (every protocol in this
// repository does).
type Process interface {
	ID() ids.ID
	Step(round int, inbox []Message) []Send
	Decided() bool
	Output() any
}

// Leaver is an optional interface for dynamic-network processes: when
// Left reports true after a Step, the runner removes the node from the
// system at the end of the round (it can still deliver the messages it
// produced in that final Step).
type Leaver interface {
	Left() bool
}

// Adversary drives all faulty nodes. Each round the runner calls Step
// once per faulty node, with that node's inbox, and delivers whatever
// Sends it returns (stamped with the faulty node's real id — identity
// forging on direct messages is impossible in the model). An adversary
// may equivocate by unicasting different payloads to different nodes,
// stay silent, replay, or flood. Like Process.Step, it must not retain
// the inbox slice.
type Adversary interface {
	Step(node ids.ID, round int, inbox []Message) []Send
}

// Metrics accumulates cost measures of a run.
type Metrics struct {
	Rounds            int            // rounds executed
	MessagesDelivered int64          // unicast-equivalent deliveries (a broadcast to k nodes counts k)
	MessagesDropped   int64          // dropped as within-round duplicates
	ByRound           []int64        // deliveries per round (index round-1)
	DecidedRound      map[ids.ID]int // first round in which each correct node reported Decided

	// InboxGrows counts deliveries that forced a pooled inbox buffer to
	// grow — the allocation-pressure gauge of the flat message plane.
	// After the warm-up rounds of a steady-state run it stops
	// increasing. It is deterministic (same schedule, same growth), but
	// it describes the allocator, not the protocol; trace digests and
	// canonical reports exclude it.
	InboxGrows int64

	// Churn gauges. Joins counts nodes (correct or faulty) that entered
	// the system after round 0; Leaves counts nodes removed mid-run
	// (graceful Leaver departures and RemoveFaulty). PeakNodes and
	// MinNodes track the membership extremes observed at round
	// boundaries, including the initial membership. All four are
	// deterministic: membership changes are part of the schedule.
	Joins     int
	Leaves    int
	PeakNodes int
	MinNodes  int
}

// Observer receives a copy of every round's traffic; used by the trace
// tool. From/sends are the post-stamping values.
type Observer func(round int, from ids.ID, sends []Send)

// Config configures a Runner.
type Config struct {
	MaxRounds          int      // hard stop; 0 means DefaultMaxRounds
	StopWhenAllDecided bool     // stop as soon as every correct node decided
	Observer           Observer // optional traffic observer

	// Workers > 1 enables the sharded round fast path: the per-round
	// Step calls of correct processes are fanned across this many
	// goroutines and their outboxes are merged in increasing-id order,
	// so the run is bit-identical to the sequential schedule. Requires
	// that processes do not share mutable state (every protocol in this
	// repository satisfies this); the adversary is always stepped
	// sequentially, so it may keep shared per-round state. See shard.go.
	Workers int
}

// DefaultMaxRounds bounds runaway protocols in tests and experiments.
const DefaultMaxRounds = 10_000

// node is one row of the flat node table: identity, the protocol
// instance (nil for faulty nodes, which the adversary drives), and the
// pooled delivery state. cur is the inbox being consumed this round,
// nxt the one being filled for the next round; StepRound swaps them so
// the backing arrays are reused for the whole run.
type node struct {
	id     ids.ID
	proc   Process
	faulty bool
	cur    inboxBuf
	nxt    inboxBuf
}

// keyRef is one inbox entry's sort key: an offset/length view into the
// runner's key arena for the round the message was delivered in.
type keyRef struct {
	off uint32
	n   uint32
}

// inboxBuf couples a pooled inbox with the per-message sort-key views
// computed at delivery time. It sorts both slices in tandem with the
// same comparator the original delivery path used (sender id, then the
// stable payload formatting), so the resulting order is identical —
// without a single fmt call inside the sort. arena is set for the
// duration of a sort only; the key bytes live on the runner.
type inboxBuf struct {
	msgs  []Message
	keys  []keyRef
	arena []byte
}

func (b *inboxBuf) Len() int { return len(b.msgs) }
func (b *inboxBuf) Less(i, j int) bool {
	if b.msgs[i].From != b.msgs[j].From {
		return b.msgs[i].From < b.msgs[j].From
	}
	ki, kj := b.keys[i], b.keys[j]
	return bytes.Compare(b.arena[ki.off:ki.off+ki.n], b.arena[kj.off:kj.off+kj.n]) < 0
}
func (b *inboxBuf) Swap(i, j int) {
	b.msgs[i], b.msgs[j] = b.msgs[j], b.msgs[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// sort orders the inbox deterministically against the arena its keys
// point into. Protocol logic must not depend on inbox order; the sort
// exists so traces and any order-dependent tie-breaks are reproducible
// run to run.
func (b *inboxBuf) sort(arena []byte) {
	b.arena = arena
	sort.Sort(b)
	b.arena = nil
}

// reset empties the buffer for reuse, keeping the backing arrays.
func (b *inboxBuf) reset() {
	b.msgs = b.msgs[:0]
	b.keys = b.keys[:0]
}

// Runner executes a synchronous round-based system.
type Runner struct {
	cfg       Config
	adv       Adversary
	nodes     []node         // the flat node table, sorted by id
	slot      map[ids.ID]int // id -> index in nodes; present nodes only
	undecided int            // correct processes not yet observed Decided
	metrics   Metrics
	spawns    map[int][]spawn // round -> nodes joining at the start of that round
	round     int
	stepping  bool     // a round is executing; membership is frozen
	leavers   []ids.ID // per-round scratch, reused

	// Double-buffered sort-key arenas: deliveries append key bytes to
	// nxtArena; at the round flip it becomes curArena, which the inbox
	// sorts (and their keyRef views) read. Both retain their backing
	// arrays for the whole run.
	curArena []byte
	nxtArena []byte

	// intern maps sort-key bytes to their one canonical string, so the
	// duplicate-filter key for a registered payload allocates at most
	// once per distinct key per run — and map probes against it
	// short-circuit on pointer equality.
	intern map[string]string

	// dedup is the within-round duplicate filter of every recipient,
	// recycled (not reallocated) each round; see srcKey.
	dedup recipFilter[srcKey]

	// arenaGauge is the arena's scratch-retention gauge (scratch.go): a
	// decaying high-water mark of per-round usage, so a flood round's
	// arena is released once traffic quiets down instead of staying
	// pinned for the rest of the process.
	arenaGauge scratchGauge

	// Pooled shard buffers (Workers > 1); see shard.go.
	pre    []stepOut
	panics []any
}

// srcKey is the reference plane's duplicate-filter identity of one
// message source (recip.go). Registered payloads use (from, ord,
// interned key bytes) with payload nil; unregistered payloads use
// (from, boxed payload) with ord 0 — the original interface-equality
// semantics. The two populations can never collide: ord 0 is reserved
// for the fallback.
type srcKey struct {
	from    ids.ID
	ord     uint32
	key     string
	payload any
}

// sendCtx carries the per-Send delivery state shared by every recipient
// of a broadcast: the recipient set is resolved once, and the sort-key
// bytes land in the arena at most once — lazily on the fallback path,
// so an unregistered Send dropped everywhere as a duplicate never
// formats.
type sendCtx struct {
	set      *recipSet
	sk       SortKeyer // non-nil: append key bytes without fmt
	key      keyRef    // arena view of the key bytes (valid when keyed)
	keyed    bool
	accepted bool // at least one recipient took the message
}

type spawn struct {
	proc   Process // nil for a faulty join
	id     ids.ID
	faulty bool
}

// NewRunner creates a runner over the given correct processes, faulty
// node ids and the adversary controlling them. adv may be nil when
// faulty is empty.
func NewRunner(cfg Config, procs []Process, faulty []ids.ID, adv Adversary) *Runner {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	r := &Runner{
		cfg:      cfg,
		adv:      adv,
		nodes:    make([]node, 0, len(procs)+len(faulty)),
		slot:     make(map[ids.ID]int, len(procs)+len(faulty)),
		spawns:   make(map[int][]spawn),
		curArena: make([]byte, 0, 1024),
		nxtArena: make([]byte, 0, 1024),
		intern:   make(map[string]string, 64),
	}
	r.metrics.DecidedRound = make(map[ids.ID]int)
	for _, p := range procs {
		if _, dup := r.slot[p.ID()]; dup {
			panic(fmt.Sprintf("sim: duplicate process id %d", p.ID()))
		}
		r.slot[p.ID()] = len(r.nodes)
		r.nodes = append(r.nodes, node{id: p.ID(), proc: p})
	}
	for _, id := range faulty {
		if j, clash := r.slot[id]; clash {
			if r.nodes[j].faulty {
				panic(fmt.Sprintf("sim: duplicate faulty id %d", id))
			}
			panic(fmt.Sprintf("sim: id %d is both correct and faulty", id))
		}
		r.slot[id] = len(r.nodes)
		r.nodes = append(r.nodes, node{id: id, faulty: true})
	}
	if len(faulty) > 0 && adv == nil {
		panic("sim: faulty nodes without an adversary")
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].id < r.nodes[j].id })
	r.reslot(0)
	r.presizeAll()
	r.undecided = len(procs)
	r.metrics.PeakNodes = len(r.nodes)
	r.metrics.MinNodes = len(r.nodes)
	return r
}

// presizeCap is the per-inbox capacity seeded for the steady-state
// traffic shape — about one broadcast per peer per round. Capped: with
// very large systems the first rounds grow the rare hot inboxes
// instead of committing n² memory up front.
func (r *Runner) presizeCap() int {
	c := len(r.nodes)
	if c > 64 {
		c = 64
	}
	if c < 8 {
		c = 8
	}
	return c
}

// presizeAll seeds every node's pooled delivery state at construction.
// The inbox buffers of all nodes come from two shared slabs, handed out
// as capacity-limited views — two allocations instead of four per node
// — so short runs do not spend their few rounds growing buffers one
// doubling at a time. A view that outgrows its capacity reallocates
// away from the slab exactly as an individually allocated buffer would
// (InboxGrows counts it either way).
func (r *Runner) presizeAll() {
	c := r.presizeCap()
	msgSlab := make([]Message, 2*c*len(r.nodes))
	keySlab := make([]keyRef, 2*c*len(r.nodes))
	for i := range r.nodes {
		n := &r.nodes[i]
		o := 2 * c * i
		n.cur.msgs = msgSlab[o : o : o+c]
		n.cur.keys = keySlab[o : o : o+c]
		n.nxt.msgs = msgSlab[o+c : o+c : o+2*c]
		n.nxt.keys = keySlab[o+c : o+c : o+2*c]
	}
	// One filter entry per distinct (from, payload) per round — a few
	// Sends per node, not per delivery.
	r.dedup.init(max(2*len(r.nodes), 16))
}

// presize seeds one joining node's pooled delivery state (the
// steady-state membership is slab-allocated by presizeAll).
func (r *Runner) presize(n *node) {
	c := r.presizeCap()
	n.cur.msgs = make([]Message, 0, c)
	n.cur.keys = make([]keyRef, 0, c)
	n.nxt.msgs = make([]Message, 0, c)
	n.nxt.keys = make([]keyRef, 0, c)
}

// reslot rebuilds the id -> index map for nodes[from:] after the table
// shifted. Membership changes are rare (joins and leaves, never
// mid-round); delivery only ever reads the map.
func (r *Runner) reslot(from int) {
	for j := from; j < len(r.nodes); j++ {
		r.slot[r.nodes[j].id] = j
	}
}

// ScheduleJoin arranges for a correct process to join the system at the
// start of the given round (its first Step is that round).
func (r *Runner) ScheduleJoin(round int, p Process) {
	if round <= r.round {
		panic("sim: join scheduled in the past")
	}
	r.spawns[round] = append(r.spawns[round], spawn{proc: p, id: p.ID()})
}

// ScheduleFaultyJoin arranges for a faulty node to join at the start of
// the given round.
func (r *Runner) ScheduleFaultyJoin(round int, id ids.ID) {
	if round <= r.round {
		panic("sim: join scheduled in the past")
	}
	r.spawns[round] = append(r.spawns[round], spawn{id: id, faulty: true})
}

// RemoveFaulty removes a faulty node from the system immediately (the
// adversary decides when faulty nodes leave, per the dynamic model).
// It must not be called while a round is executing (e.g. from an
// Observer): StepRound iterates the node table by index and relies on
// membership being frozen for the duration of the round.
func (r *Runner) RemoveFaulty(id ids.ID) {
	if r.stepping {
		panic("sim: RemoveFaulty called mid-round")
	}
	j, ok := r.slot[id]
	if !ok || !r.nodes[j].faulty {
		panic(fmt.Sprintf("sim: RemoveFaulty on non-faulty id %d", id))
	}
	r.removeNode(id)
}

// Active returns a copy of the sorted ids of all present nodes.
func (r *Runner) Active() []ids.ID {
	out := make([]ids.ID, len(r.nodes))
	for i := range r.nodes {
		out[i] = r.nodes[i].id
	}
	return out
}

// Process returns the correct process with the given id, or nil.
func (r *Runner) Process(id ids.ID) Process {
	if j, ok := r.slot[id]; ok {
		return r.nodes[j].proc
	}
	return nil
}

// Metrics returns the metrics accumulated so far.
func (r *Runner) Metrics() Metrics { return r.metrics }

// Round returns the number of the last executed round (0 before Run).
func (r *Runner) Round() int { return r.round }

// Run executes rounds until every correct node has decided (when
// StopWhenAllDecided), the caller-provided stop function returns true,
// or MaxRounds is reached. stop may be nil. It returns the metrics.
func (r *Runner) Run(stop func(round int) bool) Metrics {
	for r.round < r.cfg.MaxRounds {
		r.StepRound()
		if r.cfg.StopWhenAllDecided && r.undecided == 0 {
			break
		}
		if stop != nil && stop(r.round) {
			break
		}
	}
	return r.metrics
}

// StepRound executes exactly one round: joins scheduled for this round
// take effect, every active node consumes its inbox and produces sends,
// and the sends become next round's inboxes.
func (r *Runner) StepRound() {
	r.stepping = true
	defer func() { r.stepping = false }()
	r.round++
	round := r.round
	for _, s := range r.spawns[round] {
		if s.faulty {
			if j, ok := r.slot[s.id]; ok && r.nodes[j].faulty {
				panic(fmt.Sprintf("sim: faulty id %d joined twice", s.id))
			}
			r.insertNode(node{id: s.id, faulty: true})
		} else {
			if j, ok := r.slot[s.id]; ok && r.nodes[j].proc != nil {
				panic(fmt.Sprintf("sim: process id %d joined twice", s.id))
			}
			r.insertNode(node{id: s.id, proc: s.proc})
			r.undecided++
		}
	}
	delete(r.spawns, round)

	// Flip the delivery buffers: last round's deliveries become this
	// round's inboxes and the buffers consumed last round are emptied —
	// backing arrays intact — to receive this round's traffic. The
	// duplicate filters are cleared in place for the same reason, and
	// the key arenas flip in lockstep so every keyRef in a cur inbox
	// points into curArena. The retention gauges (scratch.go) release
	// scratch far above the decayed usage mark — only ever the buffer
	// about to be refilled (nxtArena), never curArena, whose bytes the
	// live keyRefs still view.
	r.arenaGauge.observe(len(r.nxtArena))
	r.curArena, r.nxtArena = r.nxtArena, r.curArena
	r.nxtArena = r.nxtArena[:0]
	if r.arenaGauge.oversized(cap(r.nxtArena), arenaRetainFloor) {
		r.nxtArena = make([]byte, 0, r.arenaGauge.retainTarget(arenaRetainFloor))
	}
	if len(r.intern) > internRetainMax {
		r.intern = make(map[string]string, 64)
	}
	r.dedup.flip(len(r.nodes))
	for i := range r.nodes {
		n := &r.nodes[i]
		n.cur, n.nxt = n.nxt, n.cur
		n.nxt.reset()
	}
	r.metrics.ByRound = append(r.metrics.ByRound, 0)

	r.leavers = r.leavers[:0]
	// Membership is frozen while the round executes: joins applied
	// above, leavers removed below, so indexing the table directly is
	// safe even though deliver appends into other rows' buffers.
	nn := len(r.nodes)
	// With Workers > 1 the Step calls of correct processes are computed
	// concurrently up front (shard.go); the loop below then replays the
	// exact sequential schedule — adversary steps, deliveries, observer
	// callbacks and metrics all happen in increasing-id order either way.
	var pre []stepOut
	if r.cfg.Workers > 1 {
		pre = r.shardSteps(round)
	}
	for i := 0; i < nn; i++ {
		n := &r.nodes[i]
		if pre == nil {
			n.cur.sort(r.curArena)
		}
		inbox := n.cur.msgs
		if n.faulty {
			for _, s := range r.adv.Step(n.id, round, inbox) {
				r.deliver(n.id, s)
			}
			continue
		}
		p := n.proc
		var sends []Send
		if pre != nil {
			if pre[i].decidedBefore {
				r.markDecided(n.id, round-1)
				continue
			}
			sends = pre[i].sends
		} else {
			if p.Decided() {
				r.markDecided(n.id, round-1)
				continue
			}
			sends = p.Step(round, inbox)
		}
		if r.cfg.Observer != nil {
			r.cfg.Observer(round, n.id, sends)
		}
		for _, s := range sends {
			r.deliver(n.id, s)
		}
		if p.Decided() {
			r.markDecided(n.id, round)
		}
		if l, ok := p.(Leaver); ok && l.Left() {
			r.leavers = append(r.leavers, n.id)
		}
	}
	for _, id := range r.leavers {
		r.removeNode(id)
	}
	r.metrics.Rounds = round
}

// markDecided records the first round a correct node reported Decided
// and maintains the undecided counter that replaces the per-round
// all-decided scan.
func (r *Runner) markDecided(id ids.ID, round int) {
	if _, seen := r.metrics.DecidedRound[id]; !seen {
		r.metrics.DecidedRound[id] = round
		r.undecided--
	}
}

// deliver routes one Send from the given sender, expanding broadcasts
// to every currently active node (including the sender itself — the
// paper's algorithms count the self-copy, e.g. Alg. 4 "including self")
// and discarding within-round duplicates per recipient. The recipient
// set is resolved with one filter probe per Send and shared across the
// whole broadcast fan-out.
//
// Registered payloads (SortKeyer with a nonzero ordinal) render their
// key bytes into the arena up front — the filter identity needs them —
// and intern them for the filter key. The set keeps the arena view of
// the first accepted Send of its identity, so a later Send of the same
// identity releases its fresh render and shares that view: equal
// interned keys are equal bytes. Everything else keeps the original
// semantics: interface-identity dedup, key bytes rendered lazily on the
// Send's first acceptance — per Send, because interface equality does
// not promise equal %v bytes (negative zero).
func (r *Runner) deliver(from ids.ID, s Send) {
	var c sendCtx
	registered := false
	start := len(r.nxtArena)
	if sk, ok := s.Payload.(SortKeyer); ok {
		c.sk = sk
		if ord := sk.SortKeyOrdinal(); ord != 0 {
			r.nxtArena = sk.AppendSortKey(r.nxtArena)
			kb := r.nxtArena[start:]
			ks, seen := r.intern[string(kb)] // no allocation: probe-only conversion
			if !seen {
				ks = string(kb)
				r.intern[ks] = ks
			}
			c.set = r.dedup.resolve(srcKey{from: from, ord: ord, key: ks})
			if c.set.keyed {
				r.nxtArena = r.nxtArena[:start]
				c.key = c.set.key
			} else {
				c.key = keyRef{off: uint32(start), n: uint32(len(kb))}
			}
			c.keyed, registered = true, true
		}
	}
	if c.set == nil {
		c.set = r.dedup.resolve(srcKey{from: from, payload: s.Payload})
	}
	r.dedup.masks.prepare(c.set, s.To == Broadcast)
	if s.To == Broadcast {
		for i := range r.nodes {
			r.deliverOne(i, from, s.Payload, &c)
		}
	} else if j, ok := r.slot[s.To]; ok {
		r.deliverOne(j, from, s.Payload, &c)
	}
	// Destination absent (left or never joined): the Send vanishes.
	if registered && !c.set.keyed {
		if c.accepted {
			c.set.key, c.set.keyed = c.key, true
		} else {
			// Dropped everywhere (duplicates, or an absent unicast
			// target): nothing references the fresh render at the arena
			// tail, so release it — a replay flood must not grow the
			// arena.
			r.nxtArena = r.nxtArena[:start]
		}
	}
}

func (r *Runner) deliverOne(i int, from ids.ID, payload any, c *sendCtx) {
	if !c.set.add(i) {
		r.metrics.MessagesDropped++
		return
	}
	if !c.keyed {
		// The deterministic sort key: the same stable payload formatting
		// the original comparator evaluated per comparison, at most once
		// per Send — via the payload's own appender when it has one,
		// fmt's %v otherwise.
		start := len(r.nxtArena)
		if c.sk != nil {
			r.nxtArena = c.sk.AppendSortKey(r.nxtArena)
		} else {
			r.nxtArena = appendFallbackKey(r.nxtArena, payload)
		}
		c.key, c.keyed = keyRef{off: uint32(start), n: uint32(len(r.nxtArena) - start)}, true
	}
	n := &r.nodes[i]
	if len(n.nxt.msgs) == cap(n.nxt.msgs) {
		r.metrics.InboxGrows++
	}
	n.nxt.msgs = append(n.nxt.msgs, Message{From: from, Payload: payload})
	n.nxt.keys = append(n.nxt.keys, c.key)
	c.accepted = true
	r.metrics.MessagesDelivered++
	r.metrics.ByRound[len(r.metrics.ByRound)-1]++
}

// insertNode places a joining node into the sorted table and reindexes
// the slots at and after the insertion point.
func (r *Runner) insertNode(n node) {
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].id >= n.id })
	if i < len(r.nodes) && r.nodes[i].id == n.id {
		panic(fmt.Sprintf("sim: id %d already active", n.id))
	}
	r.nodes = append(r.nodes, node{})
	copy(r.nodes[i+1:], r.nodes[i:])
	r.nodes[i] = n
	r.reslot(i)
	r.presize(&r.nodes[i])
	r.metrics.Joins++
	if len(r.nodes) > r.metrics.PeakNodes {
		r.metrics.PeakNodes = len(r.nodes)
	}
}

// removeNode drops a node from the table, releases its pooled buffers
// and keeps the undecided counter consistent when a correct process
// leaves without having decided.
func (r *Runner) removeNode(id ids.ID) {
	i, ok := r.slot[id]
	if !ok {
		return
	}
	if r.nodes[i].proc != nil {
		if _, seen := r.metrics.DecidedRound[id]; !seen {
			r.undecided--
		}
	}
	delete(r.slot, id)
	copy(r.nodes[i:], r.nodes[i+1:])
	r.nodes[len(r.nodes)-1] = node{} // release the buffers to the GC
	r.nodes = r.nodes[:len(r.nodes)-1]
	r.reslot(i)
	r.metrics.Leaves++
	if len(r.nodes) < r.metrics.MinNodes {
		r.metrics.MinNodes = len(r.nodes)
	}
}
