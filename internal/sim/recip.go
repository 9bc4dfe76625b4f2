// The per-source duplicate filter both runners share.
//
// The model drops a within-round duplicate per recipient: a node that
// sends the same message to the same recipient twice in one round
// delivers it once. Keying a map on (recipient, sender, message) costs
// one hash per recipient — n per broadcast. The filter below keys the
// map on the message *source* (sender and message identity) only and
// tracks the recipients that already took it in a per-round recipSet
// over node slots, so a broadcast to n nodes costs one map probe plus
// n bit operations. "Slot i is in the set for (from, m)" is exactly the
// per-recipient predicate "(to_i, from, m) was delivered this round".
//
// The map key is the runner's notion of identity: the wire value on the
// typed plane (srcKeyT), (type ordinal, interned key bytes) or the
// boxed payload on the reference plane (srcKey). Slots are stable for
// the whole round — membership only changes between rounds — and every
// set is recycled at the round flip.
package sim

// smallSetMax is the recipient count at which a recipSet trades its
// linear vec for a slot bitmap. Sparse-overlay fan-outs (a ring node
// talks to ⌈log₂ n⌉ successors) stay in the vec, where a scan of a
// few int32s beats clearing a bitmap; broadcasts upgrade on entry.
const smallSetMax = 32

// recipSet records the slots that already received one source's
// message this round and, once a Send of that identity was accepted,
// the arena view of its key bytes, so later Sends skip the render.
// Membership lives in the unsorted tos vec until it would exceed
// smallSetMax, then in a bitmap over all slots. Sets are pooled across
// rounds: tos chunks and masks are carved from shared slabs, tos keeps
// its capacity in place and masks return zeroed to the filter's free
// list.
type recipSet struct {
	tos   []int32  // linear membership while mask is nil
	mask  []uint64 // bitmap over the round's slots once upgraded
	key   keyRef   // arena view of the key bytes, valid while keyed
	keyed bool
}

// add records slot i as a recipient of the set and reports whether it
// was new; false means (to_i, source) was already delivered this round
// and the Send is a duplicate there. The fan-out calls maskPool.prepare
// once per Send first, so a vec always has room for the one recipient
// a unicast adds, and add stays small enough to inline into both
// runners' per-recipient loops.
func (s *recipSet) add(i int) bool {
	if s.mask != nil {
		w, bit := i>>6, uint64(1)<<uint(i&63)
		if s.mask[w]&bit != 0 {
			return false
		}
		s.mask[w] |= bit
		return true
	}
	for _, t := range s.tos {
		if int(t) == i {
			return false
		}
	}
	n := len(s.tos)
	s.tos = s.tos[:n+1]
	s.tos[n] = int32(i)
	return true
}

// maskPool recycles the bitmaps of upgraded sets across rounds.
type maskPool struct {
	nslots int          // the round's node count: bitmaps cover this many slots
	free   [][]uint64   // zeroed bitmaps ready for reuse
	slab   []uint64     // backing store fresh bitmaps are carved from
	gauge  scratchGauge // bitmaps upgraded per round
}

// prepare readies a set for one Send's fan-out: a broadcast reaches
// every slot, so its set takes a bitmap before the first recipient
// (the vec would only be scanned and copied); a unicast adds at most
// one recipient, so a full vec upgrades now.
func (p *maskPool) prepare(s *recipSet, broadcast bool) {
	if s.mask == nil && (broadcast || len(s.tos) == smallSetMax) {
		p.upgrade(s)
	}
}

// upgrade moves a recipient set from its vec to a bitmap over the
// round's slots: a zeroed mask from the free list when one there is
// long enough, otherwise a fresh one carved from the slab. Membership
// can grow between rounds on the reference plane, so a pooled mask
// sized for an earlier, smaller round is dropped rather than reused.
func (p *maskPool) upgrade(s *recipSet) {
	words := (p.nslots + 63) / 64
	for k := len(p.free); k > 0 && s.mask == nil; k = len(p.free) {
		m := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		if len(m) >= words {
			s.mask = m
		}
	}
	if s.mask == nil {
		if cap(p.slab)-len(p.slab) < words {
			p.slab = make([]uint64, 0, 64*words)
		}
		o := len(p.slab)
		p.slab = p.slab[:o+words]
		s.mask = p.slab[o : o+words : o+words]
	}
	for _, t := range s.tos {
		s.mask[t>>6] |= 1 << uint(t&63)
	}
	s.tos = s.tos[:0]
}

// release takes back the masks of one round's sets (already zeroed) and
// trims the free list toward the decayed per-round count of upgraded
// sets, so a flood round's bitmaps are not pinned for the rest of the
// run.
func (p *maskPool) release(masks int) {
	if masks == 0 && len(p.free) == 0 {
		return
	}
	p.gauge.observe(masks)
	if target := p.gauge.retainTarget(4); len(p.free) > target {
		for i := target; i < len(p.free); i++ {
			p.free[i] = nil
		}
		p.free = p.free[:target]
	}
}

// recipFilter is one runner's duplicate filter: one map entry per
// distinct source per round, each pointing at its recipient set. sets
// and masks are round-scoped scratch recycled across rounds; last
// caches the previous Send's resolution (a sparse sender unicasts the
// same payload to every successor, so consecutive Sends usually hit).
type recipFilter[K comparable] struct {
	index      map[K]int32
	indexAlloc int // entries the live index map was sized for
	sets       []recipSet
	masks      maskPool
	tosSlab    []int32 // backing store handed to fresh sets in smallSetMax chunks
	last       K
	lastIdx    int32
	lastValid  bool

	indexGauge scratchGauge
}

func (f *recipFilter[K]) init(hint int) {
	f.index = make(map[K]int32, hint)
	f.indexAlloc = hint
}

// flip recycles the round's sets and empties the index for a round of
// nslots nodes. The scratch-retention gauges (scratch.go) bound what a flood
// round may pin: an index map far above the decayed per-round usage is
// reallocated smaller, along with the matching flood of pooled vecs,
// and the mask free list is trimmed toward the decayed per-round count
// of upgraded sets.
func (f *recipFilter[K]) flip(nslots int) {
	f.lastValid = false
	f.masks.nslots = nslots
	released := 0
	for i := range f.sets {
		s := &f.sets[i]
		s.tos = s.tos[:0]
		s.keyed = false
		if s.mask != nil {
			clear(s.mask)
			f.masks.free = append(f.masks.free, s.mask)
			s.mask = nil
			released++
		}
	}
	f.sets = f.sets[:0]
	f.masks.release(released)
	if used := len(f.index); used > 0 || f.indexAlloc > dedupRetainFloor {
		f.indexGauge.observe(used)
		if f.indexGauge.oversized(f.indexAlloc, dedupRetainFloor) {
			f.init(f.indexGauge.retainTarget(dedupRetainFloor))
			f.sets = nil
			f.tosSlab = nil
		} else if used > 0 {
			if used > f.indexAlloc {
				f.indexAlloc = used
			}
			clear(f.index)
		}
	}
}

// resolve returns this round's recipient set for a source, creating it
// on first sight. The single-entry cache makes the common sparse
// pattern — one sender unicasting the same payload to each of its
// overlay successors — cost one map probe per sender instead of one per
// successor.
func (f *recipFilter[K]) resolve(key K) *recipSet {
	if f.lastValid && f.last == key {
		return &f.sets[f.lastIdx]
	}
	idx, ok := f.index[key]
	if !ok {
		idx = int32(len(f.sets))
		if n := len(f.sets); n < cap(f.sets) {
			f.sets = f.sets[:n+1] // usually a pooled entry with its vec chunk
		} else {
			f.sets = append(f.sets, recipSet{})
		}
		// A pooled entry keeps its chunk (flip leaves tos non-nil at
		// len 0); a genuinely fresh one — first use, or a zero entry off
		// an append-growth tail — gets its vec carved from the shared
		// slab, so a storm of distinct payloads costs one allocation per
		// 64 sets, not one per set.
		if e := &f.sets[idx]; e.tos == nil {
			if cap(f.tosSlab)-len(f.tosSlab) < smallSetMax {
				f.tosSlab = make([]int32, 0, 64*smallSetMax)
			}
			o := len(f.tosSlab)
			f.tosSlab = f.tosSlab[:o+smallSetMax]
			e.tos = f.tosSlab[o : o : o+smallSetMax]
		}
		f.index[key] = idx
	}
	f.last, f.lastIdx, f.lastValid = key, idx, true
	return &f.sets[idx]
}
