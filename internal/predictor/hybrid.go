package predictor

import (
	"pathtrace/internal/faults"
	"pathtrace/internal/history"
	"pathtrace/internal/trace"
)

// Hybrid is the predictor of §3.3–§3.4: a tagged correlated table plus
// a smaller secondary table indexed only by the hashed identifier of
// the most recent trace, with an optional Return History Stack.
//
// With Config.Hybrid unset it is the basic correlated predictor of
// §3.2, which the paper's hybrid extends: one untagged table, so a
// valid entry always matches, and no secondary table or RHS. Every
// paper backend (basic, hybrid, costreduced) runs this one kernel.
//
// Selection rule: if the secondary entry's 4-bit counter is saturated,
// the secondary's prediction is used (and, when correct, the correlated
// table is not updated — the aliasing filter). Otherwise the correlated
// prediction is used when its tag matches the hashed identifier of the
// immediately preceding trace, and the secondary's otherwise.
//
// Hybrid exposes a lower-level API (Lookup / CommitUpdate / Advance)
// so package engine can model speculative history with delayed table
// updates (§5.4).
//
// # Table layout
//
// The tables are stored struct-of-arrays: per entry, the small fields
// (tag, counter, valid/alt-valid flags) pack into one 32-bit meta word
// and the stored identifiers live in flat uint64 slices. A lookup or
// update round touches corrMeta+corrVal (+corrAlt only when an
// alternate exists) and secMeta+secVal — at most four cache lines of
// table data, with no pointer chasing and no padding, versus the 32-byte
// padded per-entry structs this replaced. The batched round loops
// (PredictBatch/UpdateBatch) sweep these flat slices directly.
type Hybrid struct {
	cfg  Config
	hist history.Reg
	rhs  *history.ReturnStack // nil when RHS disabled

	// Correlated table, struct-of-arrays. corrMeta packs
	// tag<<16 | ctr<<8 | flags (see entValid/entAltValid).
	corrMeta []uint32
	corrVal  []uint64
	corrAlt  []uint64

	// Secondary table, nil in a basic predictor. secMeta packs
	// ctr<<8 | flags.
	secMeta []uint16
	secVal  []uint64

	stats     Stats
	tok       Token
	secFilter bool
	tagMask   uint32 // 0 in a basic predictor: no tags
	secMask   uint32
	ctrMaxC   int // ctrMax(CounterBits), hoisted off the round path
	ctrMaxS   int // ctrMax(SecCounterBits)

	// chg records the slots written since the last delta mark; nil
	// until the predictor is first marked (see delta.go). It sits last
	// so the round path's fields keep their offsets.
	chg *changeSet
}

// Packed-entry flag bits, shared by both tables.
const (
	entValid    = 1 << 0
	entAltValid = 1 << 1
)

// Token captures everything a Lookup decided, so the matching update
// can be applied later (possibly much later, under delayed updates).
type Token struct {
	CorrIdx      uint32
	SecIdx       uint32
	Tag          uint16
	Pred         Prediction
	predVal      uint64
	altVal       uint64
	secPredVal   uint64
	secValid     bool
	secSaturated bool
}

func newHybrid(cfg Config) (*Hybrid, error) {
	h, err := history.NewReg(cfg.Depth + 1)
	if err != nil {
		return nil, err
	}
	p := &Hybrid{
		cfg:       cfg,
		hist:      h,
		corrMeta:  make([]uint32, 1<<cfg.IndexBits),
		corrVal:   make([]uint64, 1<<cfg.IndexBits),
		corrAlt:   make([]uint64, 1<<cfg.IndexBits),
		secFilter: *cfg.SecondaryFilter,
		ctrMaxC:   ctrMax(cfg.CounterBits),
		ctrMaxS:   ctrMax(cfg.SecCounterBits),
	}
	// A basic predictor builds none of the hybrid parts; their geometry
	// stays in cfg, where the state codec carries it.
	if cfg.Hybrid {
		p.secMeta = make([]uint16, 1<<cfg.SecondaryBits)
		p.secVal = make([]uint64, 1<<cfg.SecondaryBits)
		p.tagMask = uint32(1)<<cfg.TagBits - 1
		p.secMask = uint32(1)<<cfg.SecondaryBits - 1
		if cfg.UseRHS {
			rhs, err := history.NewReturnStack(cfg.RHSDepth)
			if err != nil {
				return nil, err
			}
			p.rhs = rhs
		}
	}
	if cfg.Faults != nil {
		p.hist.SetFaultHook(cfg.Faults)
	}
	return p, nil
}

// injectFaults applies one fault-injection opportunity to each table.
// Called once per CommitUpdate — before the update logic and before
// the secondary-filter early return — so the injection streams consume
// the same draws in every configuration and at every rate. A basic
// predictor draws no secondary fault and, having no tags, passes zero
// tag bits, so no fault lands on a tag. The XOR
// masks land on the same logical bits as in the array-of-structs
// layout: value and alternate words directly, tag and counter through
// their lanes of the packed meta word (the flag bits are never
// touched, exactly as the struct layout never flipped valid bits).
func (p *Hybrid) injectFaults() {
	inj := p.cfg.Faults
	tagBits := 0
	if p.secMeta != nil {
		tagBits = p.cfg.TagBits
	}
	if f := inj.CorrFault(len(p.corrMeta), p.cfg.valBits(), tagBits, p.cfg.CounterBits); f.Fire {
		switch f.Slot {
		case faults.SlotValue:
			p.corrVal[f.Index] ^= f.Mask
		case faults.SlotAlt:
			p.corrAlt[f.Index] ^= f.Mask
		case faults.SlotTag:
			p.corrMeta[f.Index] ^= uint32(uint16(f.Mask)) << 16
		case faults.SlotCounter:
			p.corrMeta[f.Index] ^= uint32(uint8(f.Mask)) << 8
		}
		if p.chg != nil {
			p.chg.corr.add(uint32(f.Index))
		}
	}
	if p.secMeta == nil {
		return
	}
	if f := inj.SecFault(len(p.secMeta), p.cfg.valBits(), p.cfg.SecCounterBits); f.Fire {
		switch f.Slot {
		case faults.SlotValue:
			p.secVal[f.Index] ^= f.Mask
		case faults.SlotCounter:
			p.secMeta[f.Index] ^= uint16(uint8(f.Mask)) << 8
		}
		if p.chg != nil {
			p.chg.sec.add(uint32(f.Index))
		}
	}
}

// NewHybrid builds a hybrid predictor directly, for callers that need
// the lower-level API (package engine). cfg.Hybrid is implied.
func NewHybrid(cfg Config) (*Hybrid, error) {
	cfg.Hybrid = true
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return newHybrid(full)
}

// lookupInto computes the prediction for the next trace from the
// current path history into tok, without changing any state. It is the
// single lookup implementation: Predict, Lookup and the batch loops all
// run it, so the scalar and batched paths cannot diverge. Taking the
// token by pointer keeps the (large) Token off the copy path.
func (p *Hybrid) lookupInto(tok *Token) {
	idx := p.cfg.DOLC.IndexOf(&p.hist)
	h0 := uint32(p.hist.At(0))
	*tok = Token{
		CorrIdx: idx,
		SecIdx:  h0 & p.secMask,
		Tag:     uint16(h0 & p.tagMask),
	}
	if p.secMeta != nil {
		sm := p.secMeta[tok.SecIdx]
		tok.secValid = sm&entValid != 0
		tok.secPredVal = p.secVal[tok.SecIdx]
		tok.secSaturated = tok.secValid && int(sm>>8) == p.ctrMaxS
	}

	cm := p.corrMeta[idx]
	useSecondary := tok.secSaturated || !(cm&entValid != 0 && uint16(cm>>16) == tok.Tag)
	if useSecondary {
		if tok.secValid {
			tok.Pred.Valid = true
			tok.Pred.FromSecondary = true
			p.cfg.present(&tok.Pred, tok.secPredVal)
			tok.predVal = tok.secPredVal
		}
	} else {
		val := p.corrVal[idx]
		tok.Pred.Valid = true
		p.cfg.present(&tok.Pred, val)
		tok.predVal = val
		if cm&entAltValid != 0 {
			tok.Pred.AltValid = true
			tok.altVal = p.corrAlt[idx]
			if !p.cfg.CostReduced {
				tok.Pred.Alt = trace.ID(tok.altVal)
			}
		}
	}
}

// Lookup computes the prediction for the next trace from the current
// path history, without changing any state.
func (p *Hybrid) Lookup() (Prediction, Token) {
	var tok Token
	p.lookupInto(&tok)
	return tok.Pred, tok
}

// commit trains the tables for a prediction described by tok, given the
// trace that actually followed. Like lookupInto it is the single
// training implementation behind Update, CommitUpdate and the batch
// loops. It does not touch the path history; pair it with Advance. It
// reports whether it wrote the correlated entry, which the secondary
// filter may skip; a marked predictor's callers record the round's
// slots from it (changeSet.round).
func (p *Hybrid) commit(tok *Token, actual *trace.Trace) (wroteCorr bool) {
	if p.cfg.Faults != nil {
		p.injectFaults()
	}
	actualVal := p.cfg.storedVal(actual)

	var ev Event
	p.stats.Predictions++
	correct := tok.Pred.Valid && tok.predVal == actualVal
	if correct {
		p.stats.Correct++
		ev |= EvCorrect
	} else {
		if !tok.Pred.Valid {
			p.stats.Cold++
			ev |= EvCold
		}
		if tok.Pred.AltValid {
			p.stats.AltPresent++
			if tok.altVal == actualVal {
				p.stats.AltCorrect++
			}
		}
	}
	if tok.Pred.FromSecondary {
		p.stats.FromSecondary++
		ev |= EvFromSecondary
	}

	// Secondary table update.
	if p.secMeta != nil {
		si := tok.SecIdx
		sm := p.secMeta[si]
		switch {
		case sm&entValid == 0:
			p.secVal[si] = actualVal
			p.secMeta[si] = entValid
		case p.secVal[si] == actualVal:
			p.secMeta[si] = uint16(satInc(uint8(sm>>8), 1, p.ctrMaxS))<<8 | sm&0xff
		case sm>>8 == 0:
			p.secVal[si] = actualVal
			ev |= EvReplaced
		default:
			p.secMeta[si] = uint16(satDec(uint8(sm>>8), p.cfg.SecCounterDec))<<8 | sm&0xff
		}
		if p.cfg.Faults.StuckZero() {
			p.secMeta[si] &= 0xff
		}
	}

	// Correlated table update — filtered when a saturated secondary was
	// correct, so single-successor traces do not pollute it.
	if p.secFilter && tok.secSaturated && tok.secPredVal == actualVal {
		if p.cfg.Recorder != nil {
			p.cfg.Recorder.Record(ev)
		}
		return false
	}
	ci := tok.CorrIdx
	cm := p.corrMeta[ci]
	switch {
	case cm&entValid == 0 || uint16(cm>>16) != tok.Tag:
		if cm&entValid != 0 {
			ev |= EvReplaced
		}
		p.corrMeta[ci] = uint32(tok.Tag)<<16 | entValid
		p.corrVal[ci] = actualVal
		if p.secMeta != nil {
			// A fresh tagged entry starts with no alternate. A fresh
			// basic entry keeps its alternate word, which a fault may
			// have flipped while the slot was empty: saved basic states
			// carry that word (see TestPaperStateBytesPinned).
			p.corrAlt[ci] = 0
		}
	case p.corrVal[ci] == actualVal:
		ctr := satInc(uint8(cm>>8), p.cfg.CounterInc, p.ctrMaxC)
		p.corrMeta[ci] = cm&^uint32(0xff00) | uint32(ctr)<<8
	case uint8(cm>>8) == 0:
		p.corrAlt[ci] = p.corrVal[ci]
		p.corrVal[ci] = actualVal
		p.corrMeta[ci] = cm | entAltValid
		ev |= EvReplaced
	default:
		ctr := satDec(uint8(cm>>8), p.cfg.CounterDec)
		p.corrMeta[ci] = cm&^uint32(0xff00) | uint32(ctr)<<8 | entAltValid
		p.corrAlt[ci] = actualVal
	}
	if p.cfg.Faults.StuckZero() {
		p.corrMeta[ci] &^= 0xff00
	}
	if p.cfg.Recorder != nil {
		p.cfg.Recorder.Record(ev)
	}
	return true
}

// CommitUpdate trains the tables for a prediction described by tok,
// given the trace that actually followed. It does not touch the path
// history; pair it with Advance.
func (p *Hybrid) CommitUpdate(tok Token, actual *trace.Trace) {
	wrote := p.commit(&tok, actual)
	if c := p.chg; c != nil {
		c.round(&tok, wrote)
	}
}

// Advance pushes a trace onto the path history and applies the Return
// History Stack actions. Under speculation, call it with the predicted
// trace's metadata; under immediate updates, with the actual trace.
func (p *Hybrid) Advance(tr *trace.Trace) {
	p.hist.Push(tr.Hash)
	if p.rhs != nil {
		p.rhs.Observe(tr, &p.hist)
	}
}

// Predict implements NextTracePredictor (immediate-update protocol).
// It is a thin wrapper over the same lookup the batch path runs.
func (p *Hybrid) Predict() Prediction {
	p.lookupInto(&p.tok)
	return p.tok.Pred
}

// Update implements NextTracePredictor.
func (p *Hybrid) Update(actual *trace.Trace) {
	wrote := p.commit(&p.tok, actual)
	if c := p.chg; c != nil {
		c.round(&p.tok, wrote)
	}
	p.Advance(actual)
}

// PredictBatch implements BatchPredictor: one full Predict/Update round
// per trace, with the prediction made before actuals[i] is revealed
// written to preds[i] (preds may be nil). The loop keeps the round
// token local and calls the shared lookup/commit primitives directly —
// no interface dispatch, no Prediction or Token copies per round. The
// change set is read once per batch, so an unmarked predictor pays one
// register test per round.
func (p *Hybrid) PredictBatch(actuals []trace.Trace, preds []Prediction) uint64 {
	before := p.stats.Correct
	c := p.chg
	var tok Token
	for i := range actuals {
		p.lookupInto(&tok)
		if preds != nil {
			preds[i] = tok.Pred
		}
		wrote := p.commit(&tok, &actuals[i])
		if c != nil {
			c.round(&tok, wrote)
		}
		p.Advance(&actuals[i])
	}
	return p.stats.Correct - before
}

// UpdateBatch implements BatchPredictor: PredictBatch with the
// predictions discarded.
func (p *Hybrid) UpdateBatch(actuals []trace.Trace) uint64 {
	return p.PredictBatch(actuals, nil)
}

// Stats implements NextTracePredictor.
func (p *Hybrid) Stats() Stats { return p.stats }

// valBits is the stored-identifier width: the full trace ID, or its
// hash when cost-reduced.
func (cfg *Config) valBits() int {
	if cfg.CostReduced {
		return trace.HashBits
	}
	return trace.IDBits
}

// storedVal converts a trace to the value representation the tables
// store: the full identifier, or its hash when cost-reduced.
func (cfg *Config) storedVal(tr *trace.Trace) uint64 {
	if cfg.CostReduced {
		return uint64(tr.Hash)
	}
	return uint64(tr.ID)
}

// present converts a stored value back into Prediction fields.
func (cfg *Config) present(p *Prediction, val uint64) {
	if cfg.CostReduced {
		p.Hashed = trace.HashedID(val)
	} else {
		p.ID = trace.ID(val)
		p.Hashed = p.ID.Hash()
	}
}
