package predictor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// This file is the incremental side of the state codec (codec.go),
// one for every backend. A round changes a few table entries (two in a
// paper predictor, up to five in TAGE), and often none: a correct
// prediction whose counter is already saturated leaves its entry's
// bytes as they were. So a holder of a recent state section (a client
// that snapshots after every acked batch) needs only the entries whose
// bytes changed since then, not the whole table. Once a predictor is
// marked, it records which slots a round changes; AppendDelta ships the
// state's mutable part plus those entries, and MergeDelta turns the
// held section into the current one.
//
// A delta has the state's shape (little-endian):
//
//	key      the head's first layout.key bytes (must equal the held
//	         state's: the paper backends' kind and flags, the whole head
//	         of the others)
//	mutable  exactly as in the full state
//	tables   per table: u32 count, count records (changed and valid,
//	         ascending)
//
// Valid entries never turn invalid (neither rounds nor fault injection
// touch the valid bit), so a changed entry either replaces the held
// entry of the same index or is new and goes in at its sorted place.
// A changed slot that is still invalid (a fault that hit an empty
// slot) is left out, exactly as the full state leaves it out. A slot
// changed and then changed back between two deltas is still recorded,
// so a delta carries every entry that differs from the held section's
// and may carry one that does not. A change that moves entries between
// slots (an unbounded table's grow) drops the mark instead, so the
// next AppendDelta fails with ErrNoMark and the holder takes a full
// state.

// ErrNoMark reports a delta asked of a predictor that was never marked.
var ErrNoMark = errors.New("predictor: no delta mark")

// A Splice replaces the Del bytes at offset Off of a state section with
// Lit. A MergeDelta plan is a list of them in ascending, non-overlapping
// order, each one that changes the section's length.
type Splice struct {
	Off, Del int
	Lit      []byte
}

// MergeLits is the size of the scratch a MergeDelta plan may keep
// literals in: the new table counts, four bytes each.
const MergeLits = 4 * maxTables

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

// changeSet records the slots whose bytes a predictor changed since
// its last mark, one slotSet per table of its layout, and keeps that
// layout, which holds while the mark does. A predictor allocates one
// when first marked; until then its rounds pay one nil check each.
type changeSet struct {
	t [maxTables]slotSet
	l layout
}

// add records slot i of table t when c is a mark's record (non-nil).
func (c *changeSet) add(t int, i uint32) {
	if c != nil {
		c.t[t].add(i)
	}
}

// Mark records that p's complete state was just shipped: from now on
// p records the slots whose bytes it changes, and AppendDelta ships
// them.
func (Backend) Mark(p NextTracePredictor) error {
	s, err := sectionsOf(p)
	if err != nil {
		return err
	}
	c := s.changes()
	if *c != nil {
		for t := range (*c).t {
			(*c).t[t].empty()
		}
		return nil
	}
	m := &changeSet{l: s.layout()}
	for t := range m.l.n {
		m.t[t] = newSlotSet(m.l.tables[t].slots)
	}
	*c = m
	return nil
}

// AppendDelta appends the delta from p's last mark to now, then marks
// p again. It fails with ErrNoMark when p holds no mark, and on any
// error returns dst as passed and keeps the record.
func (Backend) AppendDelta(b []byte, p NextTracePredictor) ([]byte, error) {
	s, err := sectionsOf(p)
	if err != nil {
		return b, err
	}
	c := *s.changes()
	if c == nil {
		return b, ErrNoMark
	}
	l := &c.l
	// The tables grow b as they go: sizing them first would cost a
	// second walk of the change sets.
	dst, start := b, len(b)
	if b, err = s.appendMutable(s.appendHead(b)[:start+l.key]); err != nil {
		return dst, err
	}
	le := binary.LittleEndian
	for t := range l.n {
		tb := &l.tables[t]
		at, n := len(b), 0
		b = le.AppendUint32(b, 0)
		c.t[t].take(func(i int) {
			if e := s.entry(t, i); e.e.w&entValid != 0 {
				b = tb.appendRecord(b, i, &e)
				n++
			}
		})
		le.PutUint32(b[at:], uint32(n))
	}
	return b, nil
}

// A MergeIndex is what a holder of a state section keeps beside it so
// MergeDelta neither parses the section nor searches it: the section's
// layout, length and table offsets, and one presence bitmap per table,
// a bit set for each slot the section holds an entry of. A delta
// entry's place is its rank, the number of held entries of a smaller
// index, counted off the bitmap. The zero MergeIndex is unbuilt:
// MergeDelta builds it from the section on first use, one bit per table
// slot, and keeps it current with each merge it accepts. Reset it
// whenever the section changes in any other way.
type MergeIndex struct {
	t     [maxTables]rankSet
	l     layout
	at    [maxTables]int // each table's count word, as a section offset
	n     [maxTables]int // each table's entries
	len   int            // the section's length
	built bool
}

// Reset marks the index stale, to be rebuilt from the next section it
// is merged against. It keeps the bitmaps' memory for that rebuild.
func (x *MergeIndex) Reset() { x.built = false }

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

// fill empties s, sizes it for table t, and sets the slots of the
// records in held. It fails r unless the indices ascend strictly below
// the table's size.
func (s *rankSet) fill(held []byte, t *table, r *stateReader) {
	words := (t.slots + 63) / 64
	nb := (words + rankBlock - 1) / rankBlock
	if cap(s.words) < words {
		s.words, s.blocks = make([]uint64, words), make([]uint32, nb)
	}
	s.words, s.blocks = s.words[:words], s.blocks[:nb]
	clear(s.words)
	clear(s.blocks)
	prev := -1
	for off, size := 0, t.size; off < len(held) && r.err == nil; off += size {
		i := int(binary.LittleEndian.Uint32(held[off:]))
		if i <= prev || i >= t.slots {
			r.fail("held index %d after %d in a table of %d", i, prev, t.slots)
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

// build indexes state, a state section of backend b, checking its
// head, mutable part and tables as Restore would but for the fields of
// its entries. On error it leaves x unbuilt.
func (x *MergeIndex) build(b Backend, state []byte) error {
	l, err := b.head(state)
	if err != nil {
		return err
	}
	h := &stateReader{b: state, off: l.head}
	h.skipMutable(&l)
	var held [maxTables][]byte // each table's records
	for t := range l.n {
		size := l.tables[t].size
		x.at[t] = h.off
		x.n[t] = h.count(size)
		held[t] = h.take(x.n[t] * size)
	}
	if h.err == nil && h.off != len(state) {
		h.fail("%d trailing bytes after held state", len(state)-h.off)
	}
	for t := range l.n {
		if h.err == nil {
			x.t[t].fill(held[t], &l.tables[t], h)
		}
	}
	if h.err != nil {
		return h.err
	}
	x.l, x.len, x.built = l, len(state), true
	return nil
}

// MergeDelta validates a delta against the state section it is
// relative to, as strictly as Restore validates a state and against
// the held section's layout, and merges it: each delta entry that
// replaces a held one is written over it in state, at the place its
// rank in x gives, and plan gains the splices that change the
// section's length: the mutable part, then per table that gains
// entries its new count and one splice per new entry. Lit slices alias
// delta, except the table counts, which go in lits, scratch the caller
// keeps until it has applied the plan. x is the section's MergeIndex,
// which the caller keeps beside the section: MergeDelta builds it on
// first use and brings it up to date with the plan, so the caller must
// apply every plan it is given. A delta is refused before anything is
// written, so a rejected delta leaves state and x as they were. The one
// refusal after that is an index out of step with the section (one kept
// across a change MergeDelta did not make): it fails the merge,
// possibly part-written, and leaves x unbuilt.
func (b Backend) MergeDelta(plan []Splice, lits *[MergeLits]byte, x *MergeIndex, state, delta []byte) ([]Splice, error) {
	if !x.built {
		if err := x.build(b, state); err != nil {
			return plan, fmt.Errorf("held state: %w", err)
		}
	} else if len(state) != x.len {
		return plan, fmt.Errorf("%w: index out of step with the held state: %d bytes, indexed %d", ErrBadState, len(state), x.len)
	}
	l := &x.l
	d := &stateReader{b: delta}
	if key := d.take(l.key); d.err == nil && !bytes.Equal(key, state[:l.key]) {
		d.fail("delta head %x for held %x", key, state[:l.key])
	}
	d.skipMutable(l)
	mutEnd := d.off
	var ents [maxTables][]byte // each table's records in delta
	var added [maxTables]int   // and how many of them are new
	for t := range l.n {
		tb := &l.tables[t]
		ents[t] = d.take(d.count(tb.size) * tb.size)
		if d.err == nil {
			added[t] = x.t[t].check(tb, ents[t], d)
		}
	}
	if d.err == nil && d.off != len(delta) {
		d.fail("%d trailing bytes after delta", len(delta)-d.off)
	}
	if d.err != nil {
		return plan, d.err
	}
	for t := range l.n {
		if tb, n := &l.tables[t], x.n[t]+added[t]; n < tb.min || n > tb.max {
			return plan, fmt.Errorf("%w: table %d would hold %d entries, outside [%d, %d]", ErrBadState, t, n, tb.min, tb.max)
		}
	}

	// The delta is sound: from here on the merge writes.
	mut := delta[l.key:mutEnd]
	plan = append(plan, Splice{Off: l.head, Del: x.at[0] - l.head, Lit: mut})
	grown := len(mut) - (x.at[0] - l.head)
	for t := range l.n {
		size, at := l.tables[t].size, x.at[t]
		if added[t] != 0 {
			lit := lits[4*t : 4*t+4]
			binary.LittleEndian.PutUint32(lit, uint32(x.n[t]+added[t]))
			plan = append(plan, Splice{Off: at, Del: 4, Lit: lit})
		}
		var err error
		if plan, err = mergeEntries(plan, &x.t[t], state[at+4:at+4+x.n[t]*size], at+4, ents[t], size); err != nil {
			x.Reset()
			return plan, err
		}
		if added[t] != 0 {
			x.t[t].addEntries(ents[t], size)
			x.n[t] += added[t]
		}
		x.at[t] += grown
		grown += added[t] * size
	}
	x.len += grown
	return plan, nil
}

// check validates records, table t's in a delta, as stateReader.record
// would: every field within its limit, slots strictly ascending below
// the table's size. It returns how many of them s, the held table's
// presence bitmap, does not hold. A bad record fails r with record's
// error.
func (s *rankSet) check(t *table, records []byte, r *stateReader) (added int) {
	prev := -1
	for off := 0; off < len(records); off += t.size {
		rec := records[off : off+t.size]
		i := int(binary.LittleEndian.Uint32(rec))
		if i <= prev || i >= t.slots || !t.fits(rec) {
			q := &stateReader{b: records, off: off}
			if q.record(t, &prev); q.err == nil {
				q.fail("entry %d refused", i)
			}
			r.err = q.err
			return 0
		}
		prev = i
		added += int(^s.words[i>>6] >> (i & 63) & 1)
	}
	return added
}

// mergeEntries merges the delta entries of size bytes into held, the
// held table's entries, which start at offset base of the section. Both
// lead each entry with its u32 index, the delta's ascending. An entry's
// place is its rank in bm, the held table's presence bitmap: a running
// count of the held entries below it, advanced by whole blocks' counts
// up to the entry's block, then a word at a time within it, up from
// where the count stands or down from the block's total, whichever is
// nearer, plus the bits below it in its own word. A set bit means the
// entry replaces the held entry at that rank, and it is written there;
// a clear one, that it goes in there, and plan gains its splice. One
// read of the held entry at the rank confirms the place: a replaced
// entry carries the same index, the one an entry goes in front of a
// larger index.
func mergeEntries(plan []Splice, bm *rankSet, held []byte, base int, delta []byte, size int) ([]Splice, error) {
	le := binary.LittleEndian
	m := len(held) / size
	blk, w := 0, 0     // w: the next word of block blk to count
	before, in := 0, 0 // the held entries in the blocks before blk, and in blk's words before w
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
		if bm.words[to]&bit != 0 {
			if r >= m || le.Uint32(held[r*size:]) != idx {
				return plan, fmt.Errorf("%w: index out of step with the held state at entry %d", ErrBadState, idx)
			}
			copy(held[r*size:r*size+size], e)
		} else {
			if r > m || r < m && le.Uint32(held[r*size:]) <= idx {
				return plan, fmt.Errorf("%w: index out of step with the held state at entry %d", ErrBadState, idx)
			}
			plan = append(plan, Splice{Off: base + r*size, Lit: e})
		}
	}
	return plan, nil
}
