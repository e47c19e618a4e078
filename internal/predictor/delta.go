package predictor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// This file is the incremental side of the paper state codec. A round
// of the paper's predictors writes at most one correlated and one
// secondary entry, so a holder of a recent state section (a client
// that snapshots after every acked batch) needs only the entries
// written since then, not the whole table. Once a predictor is marked,
// it records which slots it writes; paperAppendDelta ships the state's
// mutable part plus those entries, and paperMergeDelta turns the held
// section into the current one.
//
// Delta layout (little-endian):
//
//	kind    u8   (must equal the held state's)
//	flags   u8   (must equal the held state's)
//	stats, hist, [RHS], [faults]   exactly as in the full layout
//	corr    u32 count, count 24-byte entries (changed and valid, ascending)
//	sec     u32 count, count 13-byte entries
//
// Valid entries never turn invalid (neither rounds nor fault injection
// touch the valid bit), so a changed entry either replaces the held
// entry of the same index or is new and goes in at its sorted place.
// A changed slot that is still invalid (a fault that hit an empty
// slot) is left out, exactly as the full layout leaves it out.

// ErrNoMark reports a delta asked of a predictor that was never marked.
var ErrNoMark = errors.New("predictor: no delta mark")

// A Splice replaces the Del bytes at offset Off of a state section with
// Lit. A MergeDelta plan is a list of them in ascending, non-overlapping
// order.
type Splice struct {
	Off, Del int
	Lit      []byte
}

// MergeLits is the size of the scratch a MergeDelta plan may keep
// literals in: the paper backends' two new table counts.
const MergeLits = 8

// slotSet is a set of table slots, one bit each, with a summary bit
// per bitmap word that add has touched, so take visits only those words
// and the summary: O(slots/4096 + set slots), not O(slots/64). It is
// walked in ascending slot order, so a delta's entries come out sorted.
type slotSet struct {
	words []uint64
	sum   []uint64 // bit w set when words[w] has been added to since it was last taken
}

// newSlotSet returns an empty set of slots [0, n).
func newSlotSet(n int) slotSet {
	words := (n + 63) / 64
	return slotSet{words: make([]uint64, words), sum: make([]uint64, (words+63)/64)}
}

func (s slotSet) add(i uint32) {
	s.words[i>>6] |= 1 << (i & 63)
	s.sum[i>>12] |= 1 << (i >> 6 & 63)
}

// empty removes every slot from s.
func (s slotSet) empty() {
	clear(s.words)
	clear(s.sum)
}

// take calls f with each slot of s in ascending order and empties s.
func (s slotSet) take(f func(i int)) {
	for sw, summary := range s.sum {
		if summary == 0 {
			continue
		}
		s.sum[sw] = 0
		for ; summary != 0; summary &= summary - 1 {
			w := sw<<6 | bits.TrailingZeros64(summary)
			word := s.words[w]
			s.words[w] = 0
			for ; word != 0; word &= word - 1 {
				f(w<<6 | bits.TrailingZeros64(word))
			}
		}
	}
}

// changeSet records the slots a paper predictor wrote since its last
// mark. A predictor allocates one when first marked; until then its
// batches pay one nil check each. Rounds are recorded by commit's
// callers (the batch loops and the scalar Update paths), fault hits by
// injectFaults.
type changeSet struct {
	corr, sec slotSet
}

// round records the slots a round wrote: its secondary slot when there
// is a secondary table, and its correlated slot unless the secondary
// filter skipped the write.
func (c *changeSet) round(tok *Token, wroteCorr bool) {
	if len(c.sec.words) != 0 {
		c.sec.add(tok.SecIdx)
	}
	if wroteCorr {
		c.corr.add(tok.CorrIdx)
	}
}

// paperMark is the paper backends' Mark hook.
func paperMark(p NextTracePredictor) error {
	t, err := paperOf(p)
	if err != nil {
		return err
	}
	if c := t.chg; c != nil {
		c.corr.empty()
		c.sec.empty()
		return nil
	}
	t.chg = &changeSet{corr: newSlotSet(len(t.corr)), sec: newSlotSet(len(t.sec))}
	return nil
}

// paperAppendDelta is the paper backends' AppendDelta hook.
func paperAppendDelta(b []byte, p NextTracePredictor) ([]byte, error) {
	t, err := paperOf(p)
	if err != nil {
		return b, err
	}
	c := t.chg
	if c == nil {
		return b, ErrNoMark
	}
	flags, fs, nMut, err := t.mutable()
	if err != nil {
		return b, err
	}
	// The table parts grow b as they go: sizing them first would cost a
	// second walk of the change sets.
	b = grow(b, 2+nMut+8)
	b = append(b, t.kind(), flags)
	b = t.appendMutable(b, &fs)

	le := binary.LittleEndian
	at, n := len(b), 0
	b = le.AppendUint32(b, 0)
	c.corr.take(func(i int) {
		if t.corr[i].w&entValid != 0 {
			b = t.appendCorr(b, i)
			n++
		}
	})
	le.PutUint32(b[at:], uint32(n))
	at, n = len(b), 0
	b = le.AppendUint32(b, 0)
	c.sec.take(func(i int) {
		if t.sec[i]&entValid != 0 {
			b = t.appendSec(b, i)
			n++
		}
	})
	le.PutUint32(b[at:], uint32(n))
	return b, nil
}

// A MergeIndex is what a holder of a state section keeps beside it so
// MergeDelta places entries without searching the section: one
// presence bitmap per table, a bit set for each slot the section holds
// an entry of. A delta entry's place is its rank, the number of held
// entries of a smaller index, counted off the bitmap. The zero
// MergeIndex is unbuilt: MergeDelta builds it from the section on
// first use, one bit per table slot, and keeps it current with each
// plan it returns. Reset it whenever the section changes in any other
// way.
type MergeIndex struct {
	corr, sec rankSet
	built     bool
}

// Reset marks the index stale, to be rebuilt from the next section it
// is merged against. It keeps the bitmaps' memory for that rebuild.
func (x *MergeIndex) Reset() { x.built = false }

// build sizes the bitmaps for tables of corrSize and secSize slots and
// sets the bits of the held entries, which must ascend strictly and lie
// in their tables. On failure the index stays unbuilt.
func (x *MergeIndex) build(r *stateReader, corr []byte, corrSize int, sec []byte, secSize int) {
	x.corr.fill(corr, paperCorrEntryBytes, corrSize, "correlated", r)
	x.sec.fill(sec, paperSecEntryBytes, secSize, "secondary", r)
	x.built = r.err == nil
}

// rankBlock is the number of bitmap words a rankSet counts together:
// 4096 slots.
const rankBlock = 64

// rankSet is a presence bitmap that counts its set bits per block of
// rankBlock words, so a rank sums whole blocks, then at most half a
// block's words: O(slots/4096 + 32) per lookup rather than O(slots/64).
type rankSet struct {
	words  []uint64
	blocks []uint32 // set bits in each block of words
}

// fill empties s, sizes it for a table of size slots, and sets the
// slots of the entries in held, entries of the given size that lead
// with their u32 index. It fails r unless the indices ascend strictly
// below size.
func (s *rankSet) fill(held []byte, entry, size int, what string, r *stateReader) {
	words := (size + 63) / 64
	nb := (words + rankBlock - 1) / rankBlock
	if cap(s.words) < words {
		s.words, s.blocks = make([]uint64, words), make([]uint32, nb)
	}
	s.words, s.blocks = s.words[:words], s.blocks[:nb]
	clear(s.words)
	clear(s.blocks)
	prev := -1
	for off := 0; off < len(held) && r.err == nil; off += entry {
		i := int(binary.LittleEndian.Uint32(held[off:]))
		if i <= prev || i >= size {
			r.fail("held %s index %d after %d in a table of %d", what, i, prev, size)
			break
		}
		s.words[i>>6] |= 1 << (i & 63)
		s.blocks[i>>6/rankBlock]++
		prev = i
	}
}

// addEntries adds the slots of entries, each of the given size and
// leading with its u32 index, to s.
func (s *rankSet) addEntries(entries []byte, size int) {
	for off := 0; off < len(entries); off += size {
		i := binary.LittleEndian.Uint32(entries[off:])
		if bit := uint64(1) << (i & 63); s.words[i>>6]&bit == 0 {
			s.words[i>>6] |= bit
			s.blocks[i>>6/rankBlock]++
		}
	}
}

// paperMergeDelta is the paper backends' MergeDelta hook. It validates
// the delta as strictly as paperRestore validates a state, against the
// held section's geometry, and plans the splices that turn the held
// section into the current state: the mutable part, then per table the
// new count and one splice per delta entry, placed by rank from x. Lit
// slices alias delta, except the table counts, which go in lits. Only
// an accepted delta's new entries are marked in x, so a rejected one
// leaves x as current as the section it leaves untouched.
func paperMergeDelta(plan []Splice, lits *[MergeLits]byte, x *MergeIndex, state, delta []byte) ([]Splice, error) {
	h := &stateReader{b: state}
	kind, flags, g := h.paperHead()
	if h.err == nil && (g.IndexBits < 1 || g.IndexBits > maxIndexBits || g.SecondaryBits < 1 || g.SecondaryBits > maxSecondaryBits) {
		h.fail("held geometry %d/%d index bits", g.IndexBits, g.SecondaryBits)
	}
	mutOff := h.off
	h.mutable(flags, g.Depth, g.RHSDepth, false)
	corrAt := h.off
	nCorr := h.count("correlated entries", paperCorrEntryBytes)
	heldCorr := h.take(nCorr * paperCorrEntryBytes)
	secAt := h.off
	nSec := h.count("secondary entries", paperSecEntryBytes)
	heldSec := h.take(nSec * paperSecEntryBytes)
	if h.err == nil && h.off != len(state) {
		h.fail("%d trailing bytes after held state", len(state)-h.off)
	}
	corr, sec := paperChecks(kind, flags, &g)
	if h.err == nil && !x.built {
		x.build(h, heldCorr, corr.size, heldSec, sec.size)
	}
	if h.err != nil {
		return plan, fmt.Errorf("held state: %w", h.err)
	}

	d := &stateReader{b: delta}
	if dk, df := d.u8(), d.u8(); d.err == nil && (dk != kind || df != flags) {
		d.fail("delta kind/flags %d/%#x for held %d/%#x", dk, df, kind, flags)
	}
	d.mutable(flags, g.Depth, g.RHSDepth, false)
	mutEnd := d.off
	hybrid := kind == paperKindHybrid
	dCorr := d.count("correlated entries", paperCorrEntryBytes)
	corrOff := d.off
	for i := 0; i < dCorr && d.err == nil; i++ {
		d.corrEntry(&corr, hybrid)
	}
	dSec := d.count("secondary entries", paperSecEntryBytes)
	secOff := d.off
	for i := 0; i < dSec && d.err == nil; i++ {
		d.secEntry(&sec)
	}
	if d.err == nil && d.off != len(delta) {
		d.fail("%d trailing bytes after delta", len(delta)-d.off)
	}
	if d.err != nil {
		return plan, d.err
	}
	deltaCorr := delta[corrOff : corrOff+dCorr*paperCorrEntryBytes]
	deltaSec := delta[secOff : secOff+dSec*paperSecEntryBytes]

	plan = append(plan, Splice{Off: mutOff, Del: corrAt - mutOff, Lit: delta[2:mutEnd]})
	plan = append(plan, Splice{Off: corrAt, Del: 4, Lit: lits[:4]})
	plan, addCorr, err := planEntries(plan, &x.corr, heldCorr, corrAt+4, deltaCorr, paperCorrEntryBytes)
	if err != nil {
		return plan, err
	}
	plan = append(plan, Splice{Off: secAt, Del: 4, Lit: lits[4:]})
	plan, addSec, err := planEntries(plan, &x.sec, heldSec, secAt+4, deltaSec, paperSecEntryBytes)
	if err != nil {
		return plan, err
	}
	binary.LittleEndian.PutUint32(lits[:4], uint32(nCorr+addCorr))
	binary.LittleEndian.PutUint32(lits[4:], uint32(nSec+addSec))
	x.corr.addEntries(deltaCorr, paperCorrEntryBytes)
	x.sec.addEntries(deltaSec, paperSecEntryBytes)
	return plan, nil
}

// planEntries plans the splices of the delta entries of size bytes
// into the held table at offset base of the section. Both lead each
// entry with its u32 index, the delta's ascending. An entry's place is
// its rank in bm, the held table's presence bitmap: a running count of
// the held entries below it, advanced by whole blocks' counts up to the
// entry's block, then a word at a time within it, up from where the
// count stands or down from the block's total, whichever is nearer,
// plus the bits below it in its own word. A set bit means the entry
// replaces the held entry at that rank; a clear one, that it goes in
// there. One read of the held entry at the rank confirms the place: a
// replaced entry carries the same index, the one an entry goes in
// front of a larger index. It returns the plan and the number of new
// entries.
func planEntries(plan []Splice, bm *rankSet, held []byte, base int, delta []byte, size int) ([]Splice, int, error) {
	le := binary.LittleEndian
	m := len(held) / size
	blk, w, added := 0, 0, 0 // w: the next word of block blk to count
	before, in := 0, 0       // the held entries in the blocks before blk, and in blk's words before w
	for off := 0; off < len(delta); off += size {
		e := delta[off : off+size]
		idx := le.Uint32(e)
		to := int(idx >> 6)
		for ; blk < to/rankBlock; blk++ {
			before += int(bm.blocks[blk])
			w, in = (blk+1)*rankBlock, 0
		}
		if end := min((blk+1)*rankBlock, len(bm.words)); end-to < to-w {
			// Nearer the block's end: count down from its total.
			in = int(bm.blocks[blk])
			for _, word := range bm.words[to:end] {
				in -= bits.OnesCount64(word)
			}
			w = to
		}
		for ; w < to; w++ {
			in += bits.OnesCount64(bm.words[w])
		}
		bit := uint64(1) << (idx & 63)
		r := before + in + bits.OnesCount64(bm.words[to]&(bit-1))
		s := Splice{Off: base + r*size, Lit: e}
		if bm.words[to]&bit != 0 {
			if r >= m || le.Uint32(held[r*size:]) != idx {
				return plan, 0, fmt.Errorf("%w: index out of step with the held state at entry %d", ErrBadState, idx)
			}
			s.Del = size
		} else {
			if r > m || r < m && le.Uint32(held[r*size:]) <= idx {
				return plan, 0, fmt.Errorf("%w: index out of step with the held state at entry %d", ErrBadState, idx)
			}
			added++
		}
		plan = append(plan, s)
	}
	return plan, added, nil
}
