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
// reference plane renders once per Send: a sparse sender unicasting one
// payload to k successors formats it once, not k times.
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
// *source*: sender and wire value. The reference filter keys every
// delivery on (to, from, payload); the typed filter keys the map on
// (from, payload) only and tracks the recipient set in a side
// structure (recipSet), so a broadcast to n nodes costs one hash
// lookup plus n bit operations instead of n hash lookups. By the
// WireMsg contract (see the package comment above) wire-value equality
// coincides with boxed-value equality, so "slot i is in the set for
// (from, m)" is exactly the reference predicate "(to_i, from, payload)
// was delivered this round".
type srcKeyT[M comparable] struct {
	from    ids.ID
	payload M
}

// smallSetMax is the recipient count at which a recipSet trades its
// linear vec for a slot bitmap. Sparse-overlay fan-outs (a ring node
// talks to ⌈log₂ n⌉ successors) stay in the vec, where a scan of a
// few int32s beats any hashing; broadcast fan-outs upgrade on entry.
const smallSetMax = 32

// recipSet records the slots that already received one (from, payload)
// this round and, once a Send of that identity was accepted, the arena
// view of its key bytes, so later Sends skip the render. Membership
// lives in the unsorted tos vec until it would exceed smallSetMax, then
// in a bitmap over all slots — the inline word when the whole runner
// fits in 64 slots (no allocation ever), an allocated mask otherwise.
// Sets are pooled across rounds: tos chunks come from a shared slab and
// keep their capacity, masks return zeroed to the runner's free list.
type recipSet struct {
	tos      []int32  // linear membership while !upgraded
	word     uint64   // inline bitmap once upgraded, ≤64-slot runners
	mask     []uint64 // allocated bitmap once upgraded, larger runners
	upgraded bool
	key      keyRef // arena view of the key bytes, valid while keyed
	keyed    bool
}

func (s *recipSet) has(i int) bool {
	switch {
	case !s.upgraded:
		for _, t := range s.tos {
			if int(t) == i {
				return true
			}
		}
		return false
	case s.mask != nil:
		return s.mask[i>>6]&(1<<uint(i&63)) != 0
	default:
		return s.word&(1<<uint(i)) != 0
	}
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

	// Duplicate filter: one map entry per distinct (from, payload) this
	// round, each pointing at its recipient set. sets and maskFree are
	// round-scoped scratch recycled across rounds; lastKey caches the
	// previous Send's resolution (a sparse sender unicasts the same
	// payload to every successor, so consecutive sends usually hit).
	dedup      map[srcKeyT[M]]int32
	dedupAlloc int // entries the live filter map was sized for
	sets       []recipSet
	maskFree   [][]uint64 // zeroed bitmaps ready for reuse
	tosSlab    []int32    // backing store handed to fresh sets in smallSetMax chunks
	lastKey    srcKeyT[M]
	lastIdx    int32
	lastValid  bool

	arenaGauge scratchGauge
	dedupGauge scratchGauge
	maskGauge  scratchGauge // bitmaps upgraded per round

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
	r.dedup = make(map[srcKeyT[M]]int32, hint)
	r.dedupAlloc = hint
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
	r.resetSets()
	if used := len(r.dedup); used > 0 || r.dedupAlloc > dedupRetainFloor {
		r.dedupGauge.observe(used)
		if r.dedupGauge.oversized(r.dedupAlloc, dedupRetainFloor) {
			r.dedupAlloc = r.dedupGauge.retainTarget(dedupRetainFloor)
			r.dedup = make(map[srcKeyT[M]]int32, r.dedupAlloc)
			r.sets = nil // drop the matching flood of pooled vecs too
			r.tosSlab = nil
		} else if used > 0 {
			if used > r.dedupAlloc {
				r.dedupAlloc = used
			}
			clear(r.dedup)
		}
	}
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

// resetSets recycles the round's recipient sets: vecs keep their
// capacity in place, upgraded bitmaps are zeroed and returned to the
// free list. The mask gauge bounds what a flood round may pin — the
// free list is trimmed back toward the decayed per-round high-water,
// exactly like the arena and filter-map gauges.
func (r *TypedRunner[P, M]) resetSets() {
	r.lastValid = false
	released := 0
	for i := range r.sets {
		s := &r.sets[i]
		s.tos = s.tos[:0]
		s.word = 0
		s.upgraded = false
		s.keyed = false
		if s.mask != nil {
			clear(s.mask)
			r.maskFree = append(r.maskFree, s.mask)
			s.mask = nil
			released++
		}
	}
	r.sets = r.sets[:0]
	if released > 0 || len(r.maskFree) > 0 {
		r.maskGauge.observe(released)
		if target := r.maskGauge.retainTarget(4); len(r.maskFree) > target {
			for i := target; i < len(r.maskFree); i++ {
				r.maskFree[i] = nil
			}
			r.maskFree = r.maskFree[:target]
		}
	}
}

// resolveSet returns this round's recipient set for (from, payload),
// creating it on first sight. The single-entry cache makes the common
// sparse pattern — one sender unicasting the same payload to each of
// its overlay successors — cost one map lookup per sender instead of
// one per successor.
func (r *TypedRunner[P, M]) resolveSet(from ids.ID, payload M) *recipSet {
	key := srcKeyT[M]{from: from, payload: payload}
	if r.lastValid && r.lastKey == key {
		return &r.sets[r.lastIdx]
	}
	idx, ok := r.dedup[key]
	if !ok {
		idx = int32(len(r.sets))
		if n := len(r.sets); n < cap(r.sets) {
			r.sets = r.sets[:n+1] // usually a pooled entry with its vec chunk
		} else {
			r.sets = append(r.sets, recipSet{})
		}
		// A pooled entry keeps its chunk (reset leaves tos non-nil at
		// len 0); a genuinely fresh one — first use, or a zero entry off
		// an append-growth tail — gets its vec carved from the shared
		// slab, so a storm of distinct payloads costs one allocation per
		// 64 sets, not one per set.
		if e := &r.sets[idx]; e.tos == nil {
			if cap(r.tosSlab)-len(r.tosSlab) < smallSetMax {
				r.tosSlab = make([]int32, 0, 64*smallSetMax)
			}
			o := len(r.tosSlab)
			r.tosSlab = r.tosSlab[:o+smallSetMax]
			e.tos = r.tosSlab[o : o : o+smallSetMax]
		}
		r.dedup[key] = idx
	}
	r.lastKey, r.lastIdx, r.lastValid = key, idx, true
	return &r.sets[idx]
}

// upgradeSet moves a recipient set from its vec to a bitmap over all
// slots: the inline word for ≤64-slot runners (free), otherwise a
// zeroed mask from the free list when one is there.
func (r *TypedRunner[P, M]) upgradeSet(s *recipSet) {
	s.upgraded = true
	if len(r.idvec) <= 64 {
		for _, t := range s.tos {
			s.word |= 1 << uint(t)
		}
		s.tos = s.tos[:0]
		return
	}
	if k := len(r.maskFree); k > 0 {
		s.mask = r.maskFree[k-1]
		r.maskFree = r.maskFree[:k-1]
	} else {
		s.mask = make([]uint64, (len(r.idvec)+63)/64)
	}
	for _, t := range s.tos {
		s.mask[t>>6] |= 1 << uint(t&63)
	}
	s.tos = s.tos[:0]
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
	set := r.resolveSet(from, payload)
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
	if to == Broadcast {
		// A broadcast fan-out will blow past the vec threshold anyway;
		// upgrading up front saves the per-recipient append-then-copy.
		if !c.set.upgraded && len(r.idvec) > smallSetMax {
			r.upgradeSet(c.set)
		}
		for i := range r.idvec {
			r.deliverOne(i, from, payload, c)
		}
	} else if j, ok := r.slot[to]; ok {
		r.deliverOne(j, from, payload, c)
	}
}

func (r *TypedRunner[P, M]) deliverOne(i int, from ids.ID, payload M, c *sendCtxT[M]) {
	set := c.set
	if set.upgraded {
		if set.mask != nil {
			w, b := i>>6, uint(i&63)
			if set.mask[w]&(1<<b) != 0 {
				r.metrics.MessagesDropped++
				return
			}
			set.mask[w] |= 1 << b
		} else {
			bit := uint64(1) << uint(i)
			if set.word&bit != 0 {
				r.metrics.MessagesDropped++
				return
			}
			set.word |= bit
		}
	} else {
		if set.has(i) {
			r.metrics.MessagesDropped++
			return
		}
		if len(set.tos) >= smallSetMax {
			r.upgradeSet(set)
			if set.mask != nil {
				set.mask[i>>6] |= 1 << uint(i&63)
			} else {
				set.word |= 1 << uint(i)
			}
		} else {
			set.tos = append(set.tos, int32(i))
		}
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
