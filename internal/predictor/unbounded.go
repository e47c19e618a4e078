package predictor

import (
	"fmt"
	"math/bits"

	"pathtrace/internal/history"
	"pathtrace/internal/trace"
)

// Unbounded is the idealised predictor of §5.2: "each unique sequence
// of trace identifiers maps to its own table entry, i.e. there is no
// aliasing". It is the paper kernel with other storage and nothing
// else: its path history and Return History Stack are the history
// package's register and stack over full trace identifiers, it selects
// by rules.choose and trains by rules.train over Hybrid's packed
// entries, and those entries live in ubTables keyed by full 64-bit
// keys: the correlated table by the exact path of full trace
// identifiers, which the register keeps rolled as a history.KeyFold
// (64 bits, so with well under 2^32 distinct paths per run a collision
// is negligible and the table behaves as the paper's "each unique
// sequence maps to its own entry"), the secondary table by Mix64 of
// the most recent full identifier (a bijection, so distinct IDs never
// share an entry).
// Exact keys need no tags, so every Token it builds has Tag 0, and it
// stores full identifiers, never hashed ones.
type Unbounded struct {
	cfg  Config
	r    rules
	hist history.Path[trace.ID]
	rhs  *history.Stack[trace.ID] // nil when RHS disabled
	fold history.Fold             // the path key hist keeps rolled
	corr ubTable
	sec  ubTable // no slots without Config.Hybrid

	stats Stats
	// tok carries one round from Predict to Update, with CorrIdx and
	// SecIdx naming the slots Predict found for the keys key and secKey,
	// so Update writes without probing again.
	tok         Token
	key, secKey uint64
	// chg records the slots changed since the last delta mark; a grow,
	// which moves every key of a table, drops it.
	chg *changeSet
}

// ubTable is an open-addressed, linear-probing hash table from 64-bit
// keys to entries. Keys are compared in full, so it holds exactly what
// a map[uint64]corrEntry would; they must arrive well mixed, because
// their low bits pick the home slot. A lookup is split into find and
// set so that one round probes each table once: the slot find returns
// stays valid until set writes it, since the table grows only after
// that write.
type ubTable struct {
	slots []ubSlot // length is a power of two
	n     int      // used slots
}

// ubSlot holds a key and its entry in Hybrid's packed layout (a
// secondary entry is the word e.w, with e.alt zero). The slot is in
// use when the entry's valid bit is set.
type ubSlot struct {
	key uint64
	e   corrEntry
}

// ubInitSlots is a new table's size; it doubles whenever an insert
// leaves it more than half full.
const (
	ubInitBits  = 6
	ubInitSlots = 1 << ubInitBits
)

func newUBTable() ubTable { return ubTable{slots: make([]ubSlot, ubInitSlots)} }

// find returns the index of key's slot: the slot holding key or, when
// key is absent, the empty slot where set would insert it.
func (t *ubTable) find(key uint64) int {
	mask := uint64(len(t.slots) - 1)
	for i := key & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.e.w&entValid == 0 || s.key == key {
			return int(i)
		}
	}
}

// set stores e, which must have its valid bit set, under key in slot
// i, which must be find(key) with no set since.
func (t *ubTable) set(i int, key uint64, e corrEntry) {
	s := &t.slots[i]
	used := s.e.w&entValid != 0
	s.e = e
	if used {
		return
	}
	s.key = key
	if t.n++; 2*t.n > len(t.slots) {
		t.grow()
	}
}

func (t *ubTable) grow() {
	old := t.slots
	t.slots = make([]ubSlot, 2*len(old))
	for _, s := range old {
		if s.e.w&entValid != 0 {
			t.slots[t.find(s.key)] = s
		}
	}
}

// newUnbounded builds the unbounded backend from a normalised Config.
// Fault injection and hashed storage are not modelled on unbounded
// tables, so it clears both.
func newUnbounded(cfg Config) (*Unbounded, error) {
	if cfg.UseRHS && !cfg.Hybrid {
		return nil, fmt.Errorf("predictor: RHS requires the hybrid predictor")
	}
	cfg.Faults, cfg.CostReduced = nil, false
	hist, err := history.NewPath[trace.ID](cfg.Depth + 1)
	if err != nil {
		return nil, err
	}
	u := &Unbounded{cfg: cfg, r: newRules(&cfg), hist: hist, fold: history.KeyFold(hist.Size()), corr: newUBTable()}
	u.hist.SetFold(&u.fold)
	if cfg.Hybrid {
		u.sec = newUBTable()
	}
	if cfg.UseRHS {
		if u.rhs, err = history.NewStack[trace.ID](cfg.RHSDepth); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// Predict implements NextTracePredictor: the kernel's selection rule
// over the slots of the round's exact keys. It probes each table once
// and records the slots in the token; under the Predict/Update protocol
// the tables cannot change in between, so Update reads and writes
// those slots directly.
func (u *Unbounded) Predict() Prediction {
	tok := &u.tok
	u.key = u.hist.Folded()
	*tok = Token{CorrIdx: uint32(u.corr.find(u.key))}
	var sw uint64
	if u.sec.slots != nil {
		u.secKey = history.Mix64(uint64(u.hist.At(0)))
		tok.SecIdx = uint32(u.sec.find(u.secKey))
		sw = u.sec.slots[tok.SecIdx].e.w
	}
	u.r.choose(tok, sw, &u.corr.slots[tok.CorrIdx].e)
	u.cfg.presentTok(tok)
	return tok.Pred
}

// Update implements NextTracePredictor: it trains copies of the
// round's entries by the kernel's rules, stores them back, and advances
// the path history as Hybrid.Advance does, with the full identifier.
func (u *Unbounded) Update(actual *trace.Trace) {
	tok := &u.tok
	ce := u.corr.slots[tok.CorrIdx].e
	var se corrEntry
	var sw *uint64
	if u.sec.slots != nil {
		se = u.sec.slots[tok.SecIdx].e
		sw = &se.w
	}
	c, slots := u.chg, len(u.corr.slots)+len(u.sec.slots)
	// train leaves every entry it writes valid, so an entry it left as
	// it was is stored already: only changed entries are stored and
	// recorded.
	u.r.train(&u.stats, tok, sw, &ce, u.cfg.storedVal(actual))
	if ce != u.corr.slots[tok.CorrIdx].e {
		c.add(0, tok.CorrIdx)
		u.corr.set(int(tok.CorrIdx), u.key, ce)
	}
	if sw != nil && se != u.sec.slots[tok.SecIdx].e {
		c.add(1, tok.SecIdx)
		u.sec.set(int(tok.SecIdx), u.secKey, se)
	}
	if c != nil && len(u.corr.slots)+len(u.sec.slots) != slots {
		u.chg = nil // a grow moved every key of a table
	}
	u.hist.Push(actual.ID)
	if u.rhs != nil {
		u.rhs.Observe(actual, &u.hist)
	}
}

// Stats implements NextTracePredictor.
func (u *Unbounded) Stats() Stats { return u.stats }

// TableEntries reports the number of distinct paths learned, a measure
// of each benchmark's working set (used to explain aliasing pressure).
func (u *Unbounded) TableEntries() int { return u.corr.n }

// The unbounded backend's part of the state codec (codec.go). Its head
// is the paper head of its config (papercodec.go), geometry it does not
// use included, then the log2 slot counts of the correlated and the
// secondary table (u8 each; 0 without a secondary). Registers hold u64
// identifiers. A record is a paper record without the tag, after the
// slot's u64 key; records keep their slots, so a restored table probes
// exactly as the saved one did. A table of 2^k slots holds more than
// 2^(k-2) keys and at most 2^(k-1), since an insert that passes half
// full doubles it; the first, of ubInitSlots, holds up to half. A delta
// repeats the whole head; a grow drops the mark, so no delta spans one.

// ubMaxBits is the largest table a head may claim, in log2 slots.
const ubMaxBits = 40

// ubLayout turns a paper head's layout into an unbounded state's whose
// tables have 2^corrBits and 2^secBits slots (secBits 0: no secondary).
func ubLayout(l layout, corrBits, secBits int) layout {
	l.head, l.key, l.full = paperHeadBytes+2, paperHeadBytes+2, true
	for t, k := range [2]int{corrBits, secBits} {
		tb := l.tables[t].with(fKey, 8, 64).with(fTag, 0, 0)
		if k != 0 { // else no table, as the paper layout of a basic head has
			tb.slots, tb.max = 1<<k, 1<<(k-1)
		}
		if k > ubInitBits {
			tb.min = 1<<(k-2) + 1
		}
		l.tables[t] = tb
	}
	return l
}

// ubHeadLayout reads an unbounded head. A table it claims must be one
// the rest of the input can fill to its least count, which bounds what
// a restore allocates by the input's size.
func ubHeadLayout(state []byte) (layout, error) {
	l, err := paperHeadLayout(state)
	r := &stateReader{b: state, off: paperHeadBytes, err: err}
	corrBits, secBits := int(r.uint(1)), int(r.uint(1))
	l = ubLayout(l, corrBits, secBits)
	c, sec := &l.tables[0], &l.tables[1]
	switch {
	case r.err != nil:
	case corrBits < ubInitBits || corrBits > ubMaxBits || (state[0] == paperKindHybrid) != (secBits != 0) ||
		secBits != 0 && (secBits < ubInitBits || secBits > ubMaxBits):
		r.fail("table sizes 2^%d/2^%d for kind %d", corrBits, secBits, state[0])
	case c.min*c.size+sec.min*sec.size > len(state)-r.off:
		r.fail("tables of 2^%d/2^%d slots in %d bytes", corrBits, secBits, len(state)-r.off)
	default:
		return l, nil
	}
	return layout{}, r.err
}

// restore checks the saved head, but for its table sizes, against u's
// own, and sizes u's tables as saved.
func (u *Unbounded) restore(r *stateReader, head []byte, l *layout) error {
	if err := sameHead(head[:paperHeadBytes], appendPaperHead(nil, &u.cfg, u.rhs != nil)); err != nil {
		return err
	}
	u.corr = ubTable{slots: make([]ubSlot, l.tables[0].slots)}
	if u.sec.slots != nil {
		u.sec = ubTable{slots: make([]ubSlot, l.tables[1].slots)}
	}
	m := readMutable[trace.ID](r, l, true)
	u.stats, u.hist, u.rhs = m.stats, m.hist, m.rhs
	u.hist.SetFold(&u.fold)
	return nil
}

// sizes returns u's tables' sizes in log2 slots, 0 for no table.
func (u *Unbounded) sizes() (corrBits, secBits int) {
	if u.sec.slots != nil {
		secBits = bits.TrailingZeros(uint(len(u.sec.slots)))
	}
	return bits.TrailingZeros(uint(len(u.corr.slots))), secBits
}

func (u *Unbounded) layout() layout {
	kind, flags := paperKind(&u.cfg, u.rhs != nil)
	corrBits, secBits := u.sizes()
	return ubLayout(paperLayout(kind, flags, &u.cfg), corrBits, secBits)
}

func (u *Unbounded) appendHead(b []byte) []byte {
	corrBits, secBits := u.sizes()
	return append(appendPaperHead(b, &u.cfg, u.rhs != nil), uint8(corrBits), uint8(secBits))
}

func (u *Unbounded) appendMutable(b []byte) ([]byte, error) {
	return appendLive(b, u.stats, &u.hist, u.rhs), nil
}

// table returns the correlated (t 0) or secondary (t 1) table.
func (u *Unbounded) table(t int) *ubTable { return [...]*ubTable{&u.corr, &u.sec}[t] }

func (u *Unbounded) next(t, i int) int {
	slots := u.table(t).slots
	for ; i < len(slots) && slots[i].e.w&entValid == 0; i++ {
	}
	return i
}

func (u *Unbounded) entry(t, i int) entry { return u.table(t).slots[i] }

func (u *Unbounded) setEntry(t, i int, e entry) {
	tb := u.table(t)
	tb.slots[i] = e
	tb.n++
}

func (u *Unbounded) changes() **changeSet { return &u.chg }
