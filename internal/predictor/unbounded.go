package predictor

import (
	"fmt"

	"pathtrace/internal/history"
	"pathtrace/internal/trace"
)

// Unbounded is the idealised predictor of §5.2: "each unique sequence
// of trace identifiers maps to its own table entry, i.e. there is no
// aliasing". Both tables are ubTables keyed by full 64-bit keys: the
// correlated table by the pathKey of the exact path of full trace
// identifiers, the secondary table by mix64 of the most recent full
// identifier (a bijection, so distinct IDs never share an entry).
// Counter policies match the bounded predictors.
type Unbounded struct {
	cfg    UnboundedConfig
	size   int // identifiers tracked = depth+1
	ids    [history.MaxSize]trace.ID
	n      int
	rhs    []ubSnap
	corr   ubTable
	sec    ubTable
	stats  Stats
	tok    ubToken
	filter bool
}

// UnboundedConfig selects the unbounded variant.
type UnboundedConfig struct {
	Depth    int  // history depth 0..7
	Hybrid   bool // enable the secondary predictor
	UseRHS   bool // enable the Return History Stack (requires Hybrid)
	RHSDepth int  // default history.DefaultRHSDepth

	// Counter policies; zero values take the paper defaults (2-bit
	// inc-1/dec-2 correlated, 4-bit dec-4 secondary, filter on).
	CounterBits     int
	CounterInc      int
	CounterDec      int
	SecCounterBits  int
	SecCounterDec   int
	SecondaryFilter *bool
}

// pathKey identifies a unique sequence of full trace identifiers. The
// tracked IDs (up to 8 x 36 bits) are mixed into 64 bits with a
// splitmix-style finaliser; with well under 2^32 distinct paths per run
// the collision probability is negligible, so the table behaves as the
// paper's "each unique sequence maps to its own entry" ideal while
// keeping the table key one word.
type pathKey uint64

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

type ubEntry struct {
	val      trace.ID
	alt      trace.ID
	ctr      uint8
	altValid bool
}

type ubSnap struct {
	ids [history.MaxSize]trace.ID
	n   int
}

// ubToken carries one round from Predict to Update: the keys and the
// slots Predict found for them, so Update writes without probing again.
type ubToken struct {
	key          pathKey
	secKey       uint64
	corrSlot     int
	secSlot      int
	pred         Prediction
	predVal      trace.ID
	altVal       trace.ID
	secPredVal   trace.ID
	secSaturated bool
}

// ubTable is an open-addressed, linear-probing hash table from 64-bit
// keys to entries. Keys are compared in full, so it holds exactly what
// a map[uint64]ubEntry would; they must arrive well mixed, because
// their low bits pick the home slot. A lookup is split into find and
// set so that one round probes each table once: the slot find returns
// stays valid until set writes it, since the table grows only after
// that write.
type ubTable struct {
	slots []ubSlot // length is a power of two
	n     int      // used slots
}

type ubSlot struct {
	key   uint64
	entry ubEntry
	used  bool
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
		if s := &t.slots[i]; !s.used || s.key == key {
			return int(i)
		}
	}
}

// set stores e under key in slot i, which must be find(key) with no
// set since.
func (t *ubTable) set(i int, key uint64, e ubEntry) {
	s := &t.slots[i]
	s.entry = e
	if s.used {
		return
	}
	s.key, s.used = key, true
	if t.n++; 2*t.n > len(t.slots) {
		t.grow()
	}
}

func (t *ubTable) grow() {
	old := t.slots
	t.slots = make([]ubSlot, 2*len(old))
	for _, s := range old {
		if s.used {
			t.slots[t.find(s.key)] = s
		}
	}
}

// NewUnbounded builds an unbounded-table predictor.
func NewUnbounded(cfg UnboundedConfig) (*Unbounded, error) {
	if cfg.Depth < 0 || cfg.Depth > history.MaxSize-1 {
		return nil, fmt.Errorf("predictor: depth %d outside [0, %d]", cfg.Depth, history.MaxSize-1)
	}
	if cfg.UseRHS && !cfg.Hybrid {
		return nil, fmt.Errorf("predictor: RHS requires the hybrid predictor")
	}
	if cfg.RHSDepth == 0 {
		cfg.RHSDepth = history.DefaultRHSDepth
	}
	if cfg.CounterBits == 0 {
		cfg.CounterBits = 2
	}
	if cfg.CounterInc == 0 {
		cfg.CounterInc = 1
	}
	if cfg.CounterDec == 0 {
		cfg.CounterDec = 2
	}
	if cfg.SecCounterBits == 0 {
		cfg.SecCounterBits = 4
	}
	if cfg.SecCounterDec == 0 {
		cfg.SecCounterDec = 15
	}
	if cfg.SecondaryFilter == nil {
		cfg.SecondaryFilter = boolPtr(true)
	}
	u := &Unbounded{
		cfg:    cfg,
		size:   cfg.Depth + 1,
		corr:   newUBTable(),
		filter: *cfg.SecondaryFilter,
	}
	if cfg.Hybrid {
		u.sec = newUBTable()
	}
	return u, nil
}

func (u *Unbounded) key() pathKey {
	var k uint64
	for i := 0; i < u.size; i++ {
		k = mix64(k ^ uint64(u.ids[i]))
	}
	return pathKey(k)
}

// Predict implements NextTracePredictor. It probes each table once and
// records the slots in the token; under the Predict/Update protocol the
// tables cannot change in between, so Update reads and writes those
// slots directly.
func (u *Unbounded) Predict() Prediction {
	tok := &u.tok
	*tok = ubToken{key: u.key()}
	tok.corrSlot = u.corr.find(uint64(tok.key))
	cs := &u.corr.slots[tok.corrSlot]
	ce, corrOK := cs.entry, cs.used

	var se ubEntry
	var secOK bool
	if u.cfg.Hybrid {
		tok.secKey = mix64(uint64(u.ids[0]))
		tok.secSlot = u.sec.find(tok.secKey)
		ss := &u.sec.slots[tok.secSlot]
		se, secOK = ss.entry, ss.used
		tok.secPredVal = se.val
		tok.secSaturated = secOK && int(se.ctr) == ctrMax(u.cfg.SecCounterBits)
	}

	var pred Prediction
	switch {
	case u.cfg.Hybrid && (tok.secSaturated || !corrOK):
		if secOK {
			pred = Prediction{ID: se.val, Valid: true, FromSecondary: true, Hashed: se.val.Hash()}
			tok.predVal = se.val
		}
	case corrOK:
		pred = Prediction{ID: ce.val, Valid: true, Hashed: ce.val.Hash()}
		tok.predVal = ce.val
		if ce.altValid {
			pred.Alt = ce.alt
			pred.AltValid = true
			tok.altVal = ce.alt
		}
	}
	tok.pred = pred
	return pred
}

// Update implements NextTracePredictor.
func (u *Unbounded) Update(actual *trace.Trace) {
	tok := &u.tok
	actualVal := actual.ID

	u.stats.Predictions++
	if tok.pred.Valid && tok.predVal == actualVal {
		u.stats.Correct++
	} else {
		if !tok.pred.Valid {
			u.stats.Cold++
		}
		if tok.pred.AltValid {
			u.stats.AltPresent++
			if tok.altVal == actualVal {
				u.stats.AltCorrect++
			}
		}
	}
	if tok.pred.FromSecondary {
		u.stats.FromSecondary++
	}

	// Secondary update, through the slot Predict found.
	if u.cfg.Hybrid {
		ss := &u.sec.slots[tok.secSlot]
		se, ok := ss.entry, ss.used
		secMax := ctrMax(u.cfg.SecCounterBits)
		switch {
		case !ok:
			se = ubEntry{val: actualVal}
		case se.val == actualVal:
			se.ctr = satInc(se.ctr, 1, secMax)
		case se.ctr == 0:
			se.val = actualVal
		default:
			se.ctr = satDec(se.ctr, u.cfg.SecCounterDec)
		}
		u.sec.set(tok.secSlot, tok.secKey, se)
	}

	// Correlated update, with the saturated-secondary filter.
	if !(u.cfg.Hybrid && u.filter && tok.secSaturated && tok.secPredVal == actualVal) {
		cs := &u.corr.slots[tok.corrSlot]
		ce, ok := cs.entry, cs.used
		max := ctrMax(u.cfg.CounterBits)
		switch {
		case !ok:
			ce = ubEntry{val: actualVal}
		case ce.val == actualVal:
			ce.ctr = satInc(ce.ctr, u.cfg.CounterInc, max)
		case ce.ctr == 0:
			ce.alt = ce.val
			ce.altValid = true
			ce.val = actualVal
		default:
			ce.ctr = satDec(ce.ctr, u.cfg.CounterDec)
			ce.alt = actualVal
			ce.altValid = true
		}
		u.corr.set(tok.corrSlot, uint64(tok.key), ce)
	}

	u.advance(actual)
}

// advance pushes the actual trace onto the full-ID path history and
// applies the RHS actions.
func (u *Unbounded) advance(tr *trace.Trace) {
	copy(u.ids[1:u.size], u.ids[:u.size-1])
	u.ids[0] = tr.ID
	if u.n < u.size {
		u.n++
	}
	if !u.cfg.UseRHS {
		return
	}
	net := tr.NetCalls()
	switch {
	case net > 0:
		for i := 0; i < net; i++ {
			if len(u.rhs) >= u.cfg.RHSDepth {
				copy(u.rhs, u.rhs[1:])
				u.rhs = u.rhs[:len(u.rhs)-1]
			}
			u.rhs = append(u.rhs, ubSnap{ids: u.ids, n: u.n})
		}
	case tr.EndsInRet && tr.Calls == 0:
		if len(u.rhs) == 0 {
			return
		}
		top := u.rhs[len(u.rhs)-1]
		u.rhs = u.rhs[:len(u.rhs)-1]
		keep := history.SpliceKeep(u.size)
		if keep > u.size {
			keep = u.size
		}
		for i := keep; i < u.size; i++ {
			u.ids[i] = top.ids[i-keep]
		}
		if n := keep + top.n; n < u.size {
			u.n = n
		} else {
			u.n = u.size
		}
	}
}

// Stats implements NextTracePredictor.
func (u *Unbounded) Stats() Stats { return u.stats }

// TableEntries reports the number of distinct paths learned, a measure
// of each benchmark's working set (used to explain aliasing pressure).
func (u *Unbounded) TableEntries() int { return u.corr.n }
