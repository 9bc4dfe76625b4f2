// Monomorphized fast path: a runner generic over the concrete process
// and message types.
//
// The interface Runner (sim.go) pays interface dispatch per Step, per
// SortKeyer call and per payload box on every delivery. For a protocol
// whose whole message alphabet is known at build time, all of that is
// avoidable: TypedRunner is instantiated per protocol with a concrete
// wire type M (a small value struct — the closed union of the
// protocol's payloads) and a concrete process type P, so the compiler
// stencils the entire delivery plane. Messages travel as []MsgT[M]
// lanes carrying concrete values — no `any` boxing on registered paths
// — node bookkeeping lives in struct-of-arrays (ids, processes, faulty
// and decided flags in parallel slices a sharded round streams
// through), and the duplicate filter keys on the comparable wire value
// itself instead of (ordinal, interned key bytes). Sort-key bytes are
// rendered once per distinct (from, payload) per round, where the
// reference plane renders a registered payload on every Send to learn
// its filter identity: a sparse sender unicasting one payload to k
// successors formats it once, not k times.
//
// The schedule is bit-identical to the reference Runner, and that is a
// proven property, not an aspiration: the wire type's AppendSortKey
// must render exactly the bytes of the payload it wraps (delegation,
// checked in internal/sortkeys), so inbox sorts execute the same
// comparisons in the same insertion order, and the typed duplicate
// filter — wire-value equality — coincides with the reference filter
// (sender, type ordinal, key bytes) by the SortKeyer contract: within
// a registered type, byte equality is value equality, and ordinals
// separate types whose renderings collide. typed_test.go replays the
// golden trace digests of golden_test.go through this runner,
// sequential and sharded, and the engine's fast-path tests pin
// canonical-report byte equality.
//
// What the fast path does NOT support — by design, it falls back to
// the reference Runner instead (engine fastPath): membership churn
// (joins/leaves/Leaver), observers needing payload identity, and
// adversaries that emit payloads outside the wire union (Wrap reports
// false and the runner panics: eligibility is the caller's contract).
package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"idonly/internal/ids"
)

// WireMsg is the constraint on a protocol's concrete wire type: a
// comparable value (the duplicate filter keys on it directly) that
// renders its own deterministic sort key. The SortKeyer contract
// (sortkey.go) is what makes value equality and (ordinal, key bytes)
// equality interchangeable.
type WireMsg interface {
	comparable
	SortKeyer
}

// MsgT is Message with a concrete payload: one inbox entry of the
// typed plane.
type MsgT[M any] struct {
	From    ids.ID
	Payload M
}

// SendT is Send with a concrete payload.
type SendT[M any] struct {
	To      ids.ID // Broadcast or a specific node id
	Payload M
}

// BroadcastT is a convenience constructor for a typed broadcast.
func BroadcastT[M any](p M) SendT[M] { return SendT[M]{To: Broadcast, Payload: p} }

// UnicastT is a convenience constructor for a typed direct send.
func UnicastT[M any](to ids.ID, p M) SendT[M] { return SendT[M]{To: to, Payload: p} }

// ProcessT is a correct participant on the typed plane. StepTyped is
// Step with concrete message types; the ownership rules are identical
// (the inbox is runner-owned and reused, the send slice is
// process-owned scratch). A protocol node implements both Process and
// ProcessT over the same state, and the two must emit the same
// schedule — the golden digests check it.
type ProcessT[M any] interface {
	ID() ids.ID
	StepTyped(round int, inbox []MsgT[M]) []SendT[M]
	Decided() bool
	Output() any
}

// Codec converts between a protocol's wire type and the boxed payloads
// of the interface plane. Wrap must be injective on the union
// (distinct boxed values map to distinct wire values) and canonical
// (unused fields of a wire value are always zero for a given kind), so
// wire-value equality coincides with boxed-value equality. Unwrap must
// invert Wrap, returning the exact payload type the boxed plane
// carries — adversaries and observers see the same values either way.
type Codec[M any] struct {
	// Wrap converts a boxed payload into the wire type; ok is false for
	// payloads outside the union (the typed runner cannot carry them).
	Wrap func(p any) (M, bool)
	// Unwrap restores the boxed payload an interface-plane consumer
	// (adversary, observer) would have seen.
	Unwrap func(m M) any
}

// laneBuf is inboxBuf with a concrete message type: one recipient's
// typed delivery lane, double-buffered and pooled exactly like the
// reference inbox. It keeps the single global insertion order (not
// per-type sublanes): sort.Sort is unstable and cross-type key-byte
// ties exist, so splitting by type would reorder ties and break bit
// identity with the reference schedule.
type laneBuf[M any] struct {
	msgs  []MsgT[M]
	keys  []keyRef
	arena []byte
}

func (b *laneBuf[M]) Len() int { return len(b.msgs) }
func (b *laneBuf[M]) Less(i, j int) bool {
	if b.msgs[i].From != b.msgs[j].From {
		return b.msgs[i].From < b.msgs[j].From
	}
	ki, kj := b.keys[i], b.keys[j]
	return string(b.arena[ki.off:ki.off+ki.n]) < string(b.arena[kj.off:kj.off+kj.n])
}
func (b *laneBuf[M]) Swap(i, j int) {
	b.msgs[i], b.msgs[j] = b.msgs[j], b.msgs[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

func (b *laneBuf[M]) sort(arena []byte) {
	b.arena = arena
	sort.Sort(b)
	b.arena = nil
}

func (b *laneBuf[M]) reset() {
	b.msgs = b.msgs[:0]
	b.keys = b.keys[:0]
}

// srcKeyT is the typed duplicate-filter identity of one message
// source (recip.go): sender and wire value. By the WireMsg contract
// (see the package comment above) wire-value equality coincides with
// the reference identity (ordinal, key bytes), so the typed filter
// drops exactly the deliveries the reference filter drops.
type srcKeyT[M comparable] struct {
	from    ids.ID
	payload M
}

// sendCtxT is sendCtx for the typed plane: the per-Send state shared
// across a broadcast fan-out. The recipient set is resolved once per
// Send and the key bytes at most once per (from, payload) per round
// (route); the boxed form of the payload — needed only when a faulty node
// is among the recipients — is materialized at most once per Send, and
// adversary-originated sends reuse their original boxed payload
// instead of re-unwrapping.
type sendCtxT[M comparable] struct {
	set       *recipSet
	accepted  bool // at least one recipient took the message
	boxed     any  // lazy boxed payload for faulty recipients
	haveBoxed bool
}

// typedSlabBudget caps the presized lane slabs of one TypedRunner (in
// entries across both buffers): up to n = 16384 the per-inbox presize
// matches the reference exactly (so InboxGrows agrees delivery for
// delivery); beyond that the cap shrinks the per-inbox seed instead of
// committing hundreds of megabytes up front, and the first rounds grow
// the hot inboxes — InboxGrows is excluded from digests and canonical
// reports precisely because it describes the allocator.
const typedSlabBudget = 1 << 21

// typedDedupBudget caps the duplicate-filter presize hint.
const typedDedupBudget = 1 << 20

// TypedRunner executes a synchronous round-based system on the
// monomorphized plane. Construct with NewTypedRunner; the zero value
// is not usable.
type TypedRunner[P ProcessT[M], M WireMsg] struct {
	cfg   Config
	adv   Adversary
	codec Codec[M]

	// Struct-of-arrays node plane, sorted by id: parallel slices
	// indexed by slot, so a sharded round walks contiguous memory
	// instead of chasing per-node structs.
	idvec  []ids.ID
	procs  []P
	faulty []bool
	done   []bool // correct process observed Decided (skip future Steps)
	slot   map[ids.ID]int

	// Typed delivery lanes for correct slots, boxed inboxes for faulty
	// slots (the Adversary interface consumes []Message). Both pairs
	// are double-buffered per slot and flip at the round boundary.
	cur  []laneBuf[M]
	nxt  []laneBuf[M]
	bcur []inboxBuf
	bnxt []inboxBuf

	undecided int
	metrics   Metrics
	round     int

	curArena []byte
	nxtArena []byte

	dedup      recipFilter[srcKeyT[M]] // per-source duplicate filter (recip.go)
	arenaGauge scratchGauge

	obsSends []Send // observer unbox scratch, reused

	// Pooled shard buffers (Workers > 1).
	pre    []stepOutT[M]
	panics []any
}

// NewTypedRunner creates a typed runner over the given processes,
// faulty node ids and the adversary controlling them. codec must
// round-trip every payload the protocol and the adversary emit; adv
// may be nil when faulty is empty. Membership is fixed for the run:
// processes implementing Leaver are rejected (the reference Runner
// handles churn).
func NewTypedRunner[P ProcessT[M], M WireMsg](cfg Config, procs []P, faulty []ids.ID, adv Adversary, codec Codec[M]) *TypedRunner[P, M] {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if codec.Wrap == nil || codec.Unwrap == nil {
		panic("sim: typed runner needs a complete codec")
	}
	if len(faulty) > 0 && adv == nil {
		panic("sim: faulty nodes without an adversary")
	}
	nn := len(procs) + len(faulty)
	r := &TypedRunner[P, M]{
		cfg:      cfg,
		adv:      adv,
		codec:    codec,
		idvec:    make([]ids.ID, 0, nn),
		procs:    make([]P, nn),
		faulty:   make([]bool, nn),
		done:     make([]bool, nn),
		slot:     make(map[ids.ID]int, nn),
		cur:      make([]laneBuf[M], nn),
		nxt:      make([]laneBuf[M], nn),
		bcur:     make([]inboxBuf, nn),
		bnxt:     make([]inboxBuf, nn),
		curArena: make([]byte, 0, 1024),
		nxtArena: make([]byte, 0, 1024),
	}
	r.metrics.DecidedRound = make(map[ids.ID]int)
	type row struct {
		id     ids.ID
		proc   P
		hasP   bool
		faulty bool
	}
	rows := make([]row, 0, nn)
	for _, p := range procs {
		if _, ok := any(p).(Leaver); ok {
			panic(fmt.Sprintf("sim: typed runner does not support leavers (process %d)", p.ID()))
		}
		rows = append(rows, row{id: p.ID(), proc: p, hasP: true})
	}
	for _, id := range faulty {
		rows = append(rows, row{id: id, faulty: true})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	for i, rw := range rows {
		if j, dup := r.slot[rw.id]; dup {
			switch {
			case r.faulty[j] && rw.faulty:
				panic(fmt.Sprintf("sim: duplicate faulty id %d", rw.id))
			case !r.faulty[j] && !rw.faulty:
				panic(fmt.Sprintf("sim: duplicate process id %d", rw.id))
			default:
				panic(fmt.Sprintf("sim: id %d is both correct and faulty", rw.id))
			}
		}
		r.slot[rw.id] = i
		r.idvec = append(r.idvec, rw.id)
		r.procs[i] = rw.proc
		r.faulty[i] = rw.faulty
	}
	r.presizeAll()
	r.undecided = len(procs)
	r.metrics.PeakNodes = nn
	r.metrics.MinNodes = nn
	return r
}

// presizeCap mirrors Runner.presizeCap — clamp(n, 8, 64) — with the
// slab budget applied for huge n.
func (r *TypedRunner[P, M]) presizeCap() int {
	n := len(r.idvec)
	c := n
	if c > 64 {
		c = 64
	}
	if c < 8 {
		c = 8
	}
	if n > 0 && 2*c*n > typedSlabBudget {
		c = typedSlabBudget / (2 * n)
		if c < 8 {
			c = 8
		}
	}
	return c
}

// presizeAll seeds the pooled delivery state: one typed slab pair for
// the correct slots, one boxed slab pair for the faulty slots, handed
// out as capacity-limited views exactly like the reference presize.
func (r *TypedRunner[P, M]) presizeAll() {
	c := r.presizeCap()
	nc, nf := 0, 0
	for _, f := range r.faulty {
		if f {
			nf++
		} else {
			nc++
		}
	}
	tms := make([]MsgT[M], 2*c*nc)
	tks := make([]keyRef, 2*c*nc)
	bms := make([]Message, 2*c*nf)
	bks := make([]keyRef, 2*c*nf)
	ti, bi := 0, 0
	for i := range r.idvec {
		if r.faulty[i] {
			o := 2 * c * bi
			r.bcur[i].msgs = bms[o : o : o+c]
			r.bcur[i].keys = bks[o : o : o+c]
			r.bnxt[i].msgs = bms[o+c : o+c : o+2*c]
			r.bnxt[i].keys = bks[o+c : o+c : o+2*c]
			bi++
		} else {
			o := 2 * c * ti
			r.cur[i].msgs = tms[o : o : o+c]
			r.cur[i].keys = tks[o : o : o+c]
			r.nxt[i].msgs = tms[o+c : o+c : o+2*c]
			r.nxt[i].keys = tks[o+c : o+c : o+2*c]
			ti++
		}
	}
	// One filter entry per distinct (from, payload) per round — ~a few
	// sends per node, not per delivery.
	hint := 2 * len(r.idvec)
	if hint < 16 {
		hint = 16
	}
	if hint > typedDedupBudget {
		hint = typedDedupBudget
	}
	r.dedup.init(hint)
}

// Metrics returns the metrics accumulated so far.
func (r *TypedRunner[P, M]) Metrics() Metrics { return r.metrics }

// Round returns the number of the last executed round (0 before Run).
func (r *TypedRunner[P, M]) Round() int { return r.round }

// Active returns a copy of the sorted ids of all nodes.
func (r *TypedRunner[P, M]) Active() []ids.ID {
	return append([]ids.ID(nil), r.idvec...)
}

// Run executes rounds until every correct node has decided (when
// StopWhenAllDecided), the caller-provided stop function returns true,
// or MaxRounds is reached. stop may be nil. It returns the metrics.
func (r *TypedRunner[P, M]) Run(stop func(round int) bool) Metrics {
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

// StepRound executes exactly one round on the typed plane, replaying
// the reference schedule: buffer flip, then per-slot in increasing id
// order — sort, adversary or process step, observer, delivery — with
// metrics accounted identically.
func (r *TypedRunner[P, M]) StepRound() {
	r.round++
	round := r.round

	// Flip the delivery buffers and arenas exactly as the reference
	// does, with the scratch-retention gauges (scratch.go) bounding
	// what one flood round may pin.
	r.arenaGauge.observe(len(r.nxtArena))
	r.curArena, r.nxtArena = r.nxtArena, r.curArena
	r.nxtArena = r.nxtArena[:0]
	if r.arenaGauge.oversized(cap(r.nxtArena), arenaRetainFloor) {
		r.nxtArena = make([]byte, 0, r.arenaGauge.retainTarget(arenaRetainFloor))
	}
	r.dedup.flip(len(r.idvec))
	for i := range r.idvec {
		if r.faulty[i] {
			r.bcur[i], r.bnxt[i] = r.bnxt[i], r.bcur[i]
			r.bnxt[i].reset()
		} else {
			r.cur[i], r.nxt[i] = r.nxt[i], r.cur[i]
			r.nxt[i].reset()
		}
	}
	r.metrics.ByRound = append(r.metrics.ByRound, 0)

	nn := len(r.idvec)
	var pre []stepOutT[M]
	if r.cfg.Workers > 1 {
		pre = r.shardSteps(round)
	}
	for i := 0; i < nn; i++ {
		if pre == nil {
			r.sortSlot(i)
		}
		if r.faulty[i] {
			for _, s := range r.adv.Step(r.idvec[i], round, r.bcur[i].msgs) {
				r.deliverBoxed(r.idvec[i], s)
			}
			continue
		}
		p := r.procs[i]
		var sends []SendT[M]
		if pre != nil {
			if pre[i].decidedBefore {
				r.markDecided(r.idvec[i], round-1)
				r.done[i] = true
				continue
			}
			sends = pre[i].sends
		} else {
			// done[i] caches Decided: the reference re-calls Decided and
			// markDecided every round after a node decides, but both are
			// no-ops then (first-seen map, monotone protocols), so the
			// flag skip is schedule-neutral.
			if r.done[i] || p.Decided() {
				r.markDecided(r.idvec[i], round-1)
				r.done[i] = true
				continue
			}
			sends = p.StepTyped(round, r.cur[i].msgs)
		}
		if r.cfg.Observer != nil {
			r.observe(round, r.idvec[i], sends)
		}
		for _, s := range sends {
			r.deliver(r.idvec[i], s)
		}
		if p.Decided() {
			r.markDecided(r.idvec[i], round)
			r.done[i] = true
		}
	}
	r.metrics.Rounds = round
}

// sortSlot orders one slot's current inbox against the current arena.
func (r *TypedRunner[P, M]) sortSlot(i int) {
	if r.faulty[i] {
		r.bcur[i].sort(r.curArena)
	} else {
		r.cur[i].sort(r.curArena)
	}
}

// markDecided mirrors Runner.markDecided.
func (r *TypedRunner[P, M]) markDecided(id ids.ID, round int) {
	if _, seen := r.metrics.DecidedRound[id]; !seen {
		r.metrics.DecidedRound[id] = round
		r.undecided--
	}
}

// observe reconstructs the boxed sends an interface-plane observer
// would have seen, in runner-owned scratch.
func (r *TypedRunner[P, M]) observe(round int, from ids.ID, sends []SendT[M]) {
	out := r.obsSends[:0]
	for _, s := range sends {
		out = append(out, Send{To: s.To, Payload: r.codec.Unwrap(s.Payload)})
	}
	r.obsSends = out
	r.cfg.Observer(round, from, out)
}

// deliver routes one typed Send from a correct sender — the reference
// deliver, minus interning (the typed filter keys on the value itself)
// and minus every box.
func (r *TypedRunner[P, M]) deliver(from ids.ID, s SendT[M]) {
	r.route(from, s.To, s.Payload, &sendCtxT[M]{})
}

// deliverBoxed routes one adversary Send: wrap into the wire union
// (panic outside it — fast-path eligibility is the caller's contract),
// keep the original boxed payload for faulty recipients, and route
// like deliver.
func (r *TypedRunner[P, M]) deliverBoxed(from ids.ID, s Send) {
	m, ok := r.codec.Wrap(s.Payload)
	if !ok {
		panic(fmt.Sprintf("sim: typed runner cannot carry adversary payload %T", s.Payload))
	}
	r.route(from, s.To, m, &sendCtxT[M]{boxed: s.Payload, haveBoxed: true})
}

// route resolves the (from, payload) recipient set and fans the Send
// out against key bytes rendered once per set per round: the first
// accepted Send of an identity records its arena view in the set, and
// later Sends of the same identity reuse it. Equal wire values render
// equal bytes (the SortKeyer contract), so every keyRef compares
// exactly as a fresh render would. A render nobody accepted is
// released from the arena tail and not recorded.
func (r *TypedRunner[P, M]) route(from, to ids.ID, payload M, c *sendCtxT[M]) {
	set := r.dedup.resolve(srcKeyT[M]{from: from, payload: payload})
	c.set = set
	if set.keyed {
		r.fanOut(to, from, payload, c)
		return
	}
	start := len(r.nxtArena)
	r.nxtArena = payload.AppendSortKey(r.nxtArena)
	set.key = keyRef{off: uint32(start), n: uint32(len(r.nxtArena) - start)}
	r.fanOut(to, from, payload, c)
	set.keyed = c.accepted
	if !c.accepted {
		r.nxtArena = r.nxtArena[:start]
	}
}

func (r *TypedRunner[P, M]) fanOut(to, from ids.ID, payload M, c *sendCtxT[M]) {
	r.dedup.masks.prepare(c.set, to == Broadcast)
	if to == Broadcast {
		for i := range r.idvec {
			r.deliverOne(i, from, payload, c)
		}
	} else if j, ok := r.slot[to]; ok {
		r.deliverOne(j, from, payload, c)
	}
}

func (r *TypedRunner[P, M]) deliverOne(i int, from ids.ID, payload M, c *sendCtxT[M]) {
	set := c.set
	if !set.add(i) {
		r.metrics.MessagesDropped++
		return
	}
	if r.faulty[i] {
		// Faulty recipients consume the boxed plane (the Adversary
		// interface); materialize the box at most once per Send.
		if !c.haveBoxed {
			c.boxed = r.codec.Unwrap(payload)
			c.haveBoxed = true
		}
		b := &r.bnxt[i]
		if len(b.msgs) == cap(b.msgs) {
			r.metrics.InboxGrows++
		}
		b.msgs = append(b.msgs, Message{From: from, Payload: c.boxed})
		b.keys = append(b.keys, set.key)
	} else {
		b := &r.nxt[i]
		if len(b.msgs) == cap(b.msgs) {
			r.metrics.InboxGrows++
		}
		b.msgs = append(b.msgs, MsgT[M]{From: from, Payload: payload})
		b.keys = append(b.keys, set.key)
	}
	c.accepted = true
	r.metrics.MessagesDelivered++
	r.metrics.ByRound[len(r.metrics.ByRound)-1]++
}

// stepOutT is stepOut with concrete sends.
type stepOutT[M any] struct {
	sends         []SendT[M]
	decidedBefore bool
}

// shardSteps mirrors Runner.shardSteps on the typed plane: fan the
// StepTyped calls across cfg.Workers goroutines via an atomic work
// counter, sort every inbox (faulty included), capture per-slot panics
// and re-raise the lowest slot's on the calling goroutine.
func (r *TypedRunner[P, M]) shardSteps(round int) []stepOutT[M] {
	nn := len(r.idvec)
	if cap(r.pre) < nn {
		r.pre = make([]stepOutT[M], nn)
		r.panics = make([]any, nn)
	}
	out := r.pre[:nn]
	panics := r.panics[:nn]
	for i := range out {
		out[i] = stepOutT[M]{}
		panics[i] = nil
	}
	workers := r.cfg.Workers
	if workers > nn {
		workers = nn
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nn {
					return
				}
				func() {
					defer func() { panics[i] = recover() }()
					r.sortSlot(i)
					if r.faulty[i] {
						return
					}
					p := r.procs[i]
					if r.done[i] || p.Decided() {
						out[i].decidedBefore = true
						return
					}
					out[i].sends = p.StepTyped(round, r.cur[i].msgs)
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}
