package predictor

import (
	"fmt"

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
const ubInitSlots = 64

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
	if u.r.train(&u.stats, tok, sw, &ce, u.cfg.storedVal(actual)) {
		u.corr.set(int(tok.CorrIdx), u.key, ce)
	}
	if sw != nil {
		u.sec.set(int(tok.SecIdx), u.secKey, se)
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
