package predictor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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

// slotSet is a set of table slots: a bitmap for membership and a list
// to walk and clear it in O(members).
type slotSet struct {
	bits []uint64
	list []uint32
}

func (s *slotSet) add(i uint32) {
	if w, bit := i>>6, uint64(1)<<(i&63); s.bits[w]&bit == 0 {
		s.bits[w] |= bit
		s.list = append(s.list, i)
	}
}

func (s *slotSet) reset() {
	for _, i := range s.list {
		s.bits[i>>6] = 0
	}
	s.list = s.list[:0]
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
	if len(c.sec.bits) != 0 {
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
		c.corr.reset()
		c.sec.reset()
		return nil
	}
	t.chg = &changeSet{
		corr: slotSet{bits: make([]uint64, (len(t.corr)+63)/64)},
		sec:  slotSet{bits: make([]uint64, (len(t.sec)+63)/64)},
	}
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
	slices.Sort(c.corr.list)
	slices.Sort(c.sec.list)
	b = grow(b, 2+nMut+4+len(c.corr.list)*paperCorrEntryBytes+4+len(c.sec.list)*paperSecEntryBytes)
	b = append(b, t.kind(), flags)
	b = t.appendMutable(b, &fs)

	le := binary.LittleEndian
	at, n := len(b), 0
	b = le.AppendUint32(b, 0)
	for _, i := range c.corr.list {
		if t.corr[i].w&entValid != 0 {
			b = t.appendCorr(b, int(i))
			n++
		}
	}
	le.PutUint32(b[at:], uint32(n))
	at, n = len(b), 0
	b = le.AppendUint32(b, 0)
	for _, i := range c.sec.list {
		if t.sec[i]&entValid != 0 {
			b = t.appendSec(b, int(i))
			n++
		}
	}
	le.PutUint32(b[at:], uint32(n))
	c.corr.reset()
	c.sec.reset()
	return b, nil
}

// paperMergeDelta is the paper backends' MergeDelta hook. It validates
// the delta as strictly as paperRestore validates a state, against the
// held section's geometry, and plans the splices that turn the held
// section into the current state: the mutable part, then per table the
// new count and one splice per delta entry. Each entry's place is a
// binary search over the held entries after the previous one's. Lit
// slices alias delta, except the table counts, which go in lits.
func paperMergeDelta(plan []Splice, lits *[MergeLits]byte, state, delta []byte) ([]Splice, error) {
	h := &stateReader{b: state}
	kind, flags, g := h.paperHead()
	if h.err == nil && (g.IndexBits > 30 || g.SecondaryBits > 30) {
		h.fail("held geometry %d/%d index bits", g.IndexBits, g.SecondaryBits)
	}
	mutOff := h.off
	h.mutable(flags, g.Depth, g.RHSDepth, false)
	corrAt := h.off
	nCorr := h.count("correlated entries", paperCorrEntryBytes)
	h.take(nCorr * paperCorrEntryBytes)
	secAt := h.off
	nSec := h.count("secondary entries", paperSecEntryBytes)
	h.take(nSec * paperSecEntryBytes)
	if h.err == nil && h.off != len(state) {
		h.fail("%d trailing bytes after held state", len(state)-h.off)
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
	corr, sec := paperChecks(kind, flags, &g)
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

	plan = append(plan, Splice{Off: mutOff, Del: corrAt - mutOff, Lit: delta[2:mutEnd]})
	plan = append(plan, Splice{Off: corrAt, Del: 4, Lit: lits[:4]})
	plan, add := planEntries(plan, state[corrAt+4:], corrAt+4, nCorr, delta[corrOff:], dCorr, paperCorrEntryBytes)
	binary.LittleEndian.PutUint32(lits[:4], uint32(nCorr+add))
	plan = append(plan, Splice{Off: secAt, Del: 4, Lit: lits[4:]})
	plan, add = planEntries(plan, state[secAt+4:], secAt+4, nSec, delta[secOff:], dSec, paperSecEntryBytes)
	binary.LittleEndian.PutUint32(lits[4:], uint32(nSec+add))
	return plan, nil
}

// planEntries plans the splices of n delta entries of size bytes into
// a held table of m entries at offset base of the section: a delta
// entry replaces the held entry of its index, or goes in before the
// first held entry of a larger index. Both tables lead each entry with
// its u32 index. It returns the plan and the number of new entries.
func planEntries(plan []Splice, held []byte, base, m int, delta []byte, n, size int) ([]Splice, int) {
	le := binary.LittleEndian
	lo, added := 0, 0
	for k := 0; k < n; k++ {
		e := delta[k*size : (k+1)*size]
		idx := le.Uint32(e)
		i, j := lo, m
		for i < j {
			if mid := int(uint(i+j) >> 1); le.Uint32(held[mid*size:]) < idx {
				i = mid + 1
			} else {
				j = mid
			}
		}
		s := Splice{Off: base + i*size, Lit: e}
		if i < m && le.Uint32(held[i*size:]) == idx {
			s.Del = size
			lo = i + 1
		} else {
			added++
			lo = i
		}
		plan = append(plan, s)
	}
	return plan, added
}
