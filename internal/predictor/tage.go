package predictor

import (
	"fmt"

	"pathtrace/internal/history"
	"pathtrace/internal/trace"
)

// tage is a TAGE-style next-trace predictor: a directly indexed base
// table plus a bank of tagged tables, each hashing a geometrically
// longer prefix of the path-history register (Seznec & Michaud's
// "A case for (partially) TAgged GEometric history length branch
// prediction", adapted from branch outcomes to trace identifiers).
//
// Prediction: the longest tagged table whose entry's tag matches the
// path hash provides the prediction; the next-longest match (or the
// base table) is the alternate. The base table — indexed by the hashed
// identifier of the most recent trace, exactly like the hybrid's
// secondary table — serves cold paths. Base-supplied predictions are
// counted as FromSecondary so Stats keep one meaning across backends.
//
// Training is deterministic (no PRNG): the provider's counter trains
// toward the actual trace; on a misprediction one entry is allocated in
// the first longer table whose useful counter is zero, else every
// longer table's useful counter decays. Determinism is what keeps a
// served TAGE session bit-identical under save/restore, exactly like
// the paper predictors.
//
// Differences from the paper variants, by design: fault injection and
// cost-reduced storage are not modelled (the injector's table-slot
// model assumes the correlated layout), so newTage ignores cfg.Faults
// and rejects cfg.CostReduced.
type tage struct {
	cfg  Config
	hist history.Reg

	lens     [maxTageTables]int // history length per tagged table, ascending
	nTables  int
	idxMask  uint32
	tagMask  uint16
	baseMask uint32

	base   []tageBase
	tables [maxTageTables][]tageEntry

	stats Stats
	tok   tageTok
}

// maxTageTables bounds the tagged-table bank; the geometric series
// {1, 2, 4, 8} fits the history register's 8-identifier ceiling.
const maxTageTables = 4

// tageUMax is the 2-bit useful-counter ceiling.
const tageUMax = 3

type tageBase struct {
	val   uint64
	ctr   uint8
	valid bool
}

type tageEntry struct {
	val   uint64
	tag   uint16
	ctr   uint8
	u     uint8
	valid bool
}

// tageTok carries one Predict's decisions to the matching Update.
type tageTok struct {
	idx      [maxTageTables]uint32
	tag      [maxTageTables]uint16
	baseIdx  uint32
	provider int // tagged table that provided, -1 = base or cold
	altTbl   int // tagged table providing the alternate, -1 = base
	pred     Prediction
	predVal  uint64
	altVal   uint64
	altKnown bool // an alternate prediction existed (table or base)
}

// tageLens returns the geometric history lengths {1, 2, 4, 8} clipped
// to the register size (depth+1) and deduplicated.
func tageLens(depth int) []int {
	var lens []int
	for _, l := range [...]int{1, 2, 4, 8} {
		if l > depth+1 {
			l = depth + 1
		}
		if len(lens) == 0 || l > lens[len(lens)-1] {
			lens = append(lens, l)
		}
	}
	return lens
}

// tageTableBits sizes each tagged table: the total tagged budget stays
// comparable to the correlated table (four tables at IndexBits-2 each),
// floored so shallow configs still have room to allocate.
func tageTableBits(indexBits int) int {
	bits := indexBits - 2
	if bits < 4 {
		bits = 4
	}
	return bits
}

func newTage(cfg Config) (*tage, error) {
	if cfg.CostReduced {
		return nil, fmt.Errorf("predictor: tage backend does not support cost-reduced storage")
	}
	h, err := history.NewReg(cfg.Depth + 1)
	if err != nil {
		return nil, err
	}
	t := &tage{
		cfg:      cfg,
		hist:     h,
		idxMask:  uint32(1)<<tageTableBits(cfg.IndexBits) - 1,
		tagMask:  uint16(uint32(1)<<cfg.TagBits - 1),
		baseMask: uint32(1)<<cfg.SecondaryBits - 1,
		base:     make([]tageBase, 1<<cfg.SecondaryBits),
	}
	lens := tageLens(cfg.Depth)
	t.nTables = len(lens)
	size := int(t.idxMask) + 1
	for i, l := range lens {
		t.lens[i] = l
		t.tables[i] = make([]tageEntry, size)
	}
	return t, nil
}

// pathHash mixes the most recent n history identifiers with a per-table
// salt. Table index and tag are drawn from disjoint bit ranges of the
// result, so an aliased index does not imply an aliased tag.
func (t *tage) pathHash(tbl, n int) uint64 {
	h := 0x9e3779b97f4a7c15 * uint64(tbl+1)
	for i := 0; i < n; i++ {
		h = history.Mix64(h ^ uint64(t.hist.At(i)) ^ uint64(i)<<trace.HashBits)
	}
	return h
}

// Predict implements NextTracePredictor.
func (t *tage) Predict() Prediction {
	tok := &t.tok
	*tok = tageTok{provider: -1, altTbl: -1}
	tok.baseIdx = uint32(t.hist.At(0)) & t.baseMask

	for i := 0; i < t.nTables; i++ {
		h := t.pathHash(i, t.lens[i])
		tok.idx[i] = uint32(h) & t.idxMask
		tok.tag[i] = uint16(h>>40) & t.tagMask
	}

	// Longest tag match provides; the next-longest is the alternate.
	for i := t.nTables - 1; i >= 0; i-- {
		e := &t.tables[i][tok.idx[i]]
		if !e.valid || e.tag != tok.tag[i] {
			continue
		}
		if tok.provider < 0 {
			tok.provider = i
		} else {
			tok.altTbl = i
			tok.altVal = e.val
			tok.altKnown = true
			break
		}
	}

	be := &t.base[tok.baseIdx]
	var pred Prediction
	switch {
	case tok.provider >= 0:
		e := &t.tables[tok.provider][tok.idx[tok.provider]]
		pred.Valid = true
		tok.predVal = e.val
		t.cfg.present(&pred, e.val)
		if !tok.altKnown && be.valid {
			tok.altVal = be.val
			tok.altKnown = true
		}
		if tok.altKnown {
			pred.AltValid = true
			pred.Alt = trace.ID(tok.altVal)
		}
	case be.valid:
		pred.Valid = true
		pred.FromSecondary = true
		tok.predVal = be.val
		t.cfg.present(&pred, be.val)
	}
	tok.pred = pred
	return pred
}

// Update implements NextTracePredictor.
func (t *tage) Update(actual *trace.Trace) {
	tok := &t.tok
	actualVal := uint64(actual.ID)

	var ev Event
	t.stats.Predictions++
	correct := tok.pred.Valid && tok.predVal == actualVal
	if correct {
		t.stats.Correct++
		ev |= EvCorrect
	} else {
		if !tok.pred.Valid {
			t.stats.Cold++
			ev |= EvCold
		}
		if tok.pred.AltValid {
			t.stats.AltPresent++
			if tok.altVal == actualVal {
				t.stats.AltCorrect++
			}
		}
	}
	if tok.pred.FromSecondary {
		t.stats.FromSecondary++
		ev |= EvFromSecondary
	}

	// Base table trains every round, like the hybrid's secondary table
	// and under the same counter policy.
	be := &t.base[tok.baseIdx]
	secMax := ctrMax(t.cfg.SecCounterBits)
	switch {
	case !be.valid:
		be.val = actualVal
		be.ctr = 0
		be.valid = true
	case be.val == actualVal:
		be.ctr = satInc(be.ctr, 1, secMax)
	case be.ctr == 0:
		be.val = actualVal
		ev |= EvReplaced
	default:
		be.ctr = satDec(be.ctr, t.cfg.SecCounterDec)
	}

	// Provider training plus useful-counter bookkeeping: the u counter
	// only moves when the provider and the alternate disagree, so it
	// measures where the long history actually earned its keep.
	if p := tok.provider; p >= 0 {
		e := &t.tables[p][tok.idx[p]]
		provCorrect := e.val == actualVal
		if tok.altKnown && tok.altVal != e.val {
			if provCorrect {
				e.u = satInc(e.u, 1, tageUMax)
			} else {
				e.u = satDec(e.u, 1)
			}
		}
		max := ctrMax(t.cfg.CounterBits)
		switch {
		case provCorrect:
			e.ctr = satInc(e.ctr, t.cfg.CounterInc, max)
		case e.ctr == 0:
			e.val = actualVal
			e.u = 0
			ev |= EvReplaced
		default:
			e.ctr = satDec(e.ctr, t.cfg.CounterDec)
		}
	}

	// Allocate on a misprediction: the first longer table with a spent
	// useful counter takes a fresh entry; if every candidate is still
	// useful, they all decay one step so the path eventually gets room.
	if !correct && tok.provider < t.nTables-1 {
		allocated := false
		for i := tok.provider + 1; i < t.nTables; i++ {
			e := &t.tables[i][tok.idx[i]]
			if e.u == 0 {
				if e.valid {
					ev |= EvReplaced
				}
				*e = tageEntry{val: actualVal, tag: tok.tag[i], valid: true}
				allocated = true
				break
			}
		}
		if !allocated {
			for i := tok.provider + 1; i < t.nTables; i++ {
				e := &t.tables[i][tok.idx[i]]
				e.u = satDec(e.u, 1)
			}
		}
	}

	t.hist.Push(actual.Hash)
	if t.cfg.Recorder != nil {
		t.cfg.Recorder.Record(ev)
	}
}

// Stats implements NextTracePredictor.
func (t *tage) Stats() Stats { return t.stats }
