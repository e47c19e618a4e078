package predictor

import (
	"pathtrace/internal/faults"
	"pathtrace/internal/history"
	"pathtrace/internal/trace"
)

// basic is the correlated predictor of §3.2: a single table indexed by
// the DOLC-generated path index; entries hold a predicted trace
// identifier, an increment-by-1/decrement-by-2 two-bit counter, and
// (per §6) an alternate identifier.
//
// Like Hybrid, the table is stored struct-of-arrays: tabMeta packs
// ctr<<8 | flags per entry (entValid/entAltValid) next to flat value
// and alternate slices, so a lookup touches two dense cache lines
// instead of a padded 32-byte struct.
type basic struct {
	cfg  Config
	hist history.Reg

	tabMeta []uint32 // ctr<<8 | flags
	tabVal  []uint64 // trace.ID, or trace.HashedID when cost-reduced
	tabAlt  []uint64

	stats   Stats
	tok     basicToken
	ctrMaxT int // ctrMax(CounterBits), hoisted off the round path

	chg *changeSet // slots written since the last delta mark, nil until marked; last, like Hybrid's
}

type basicToken struct {
	idx     uint32
	pred    Prediction
	predVal uint64
	altVal  uint64
}

func newBasic(cfg Config) (*basic, error) {
	h, err := history.NewReg(cfg.Depth + 1)
	if err != nil {
		return nil, err
	}
	b := &basic{
		cfg:     cfg,
		hist:    h,
		tabMeta: make([]uint32, 1<<cfg.IndexBits),
		tabVal:  make([]uint64, 1<<cfg.IndexBits),
		tabAlt:  make([]uint64, 1<<cfg.IndexBits),
		ctrMaxT: ctrMax(cfg.CounterBits),
	}
	if cfg.Faults != nil {
		b.hist.SetFaultHook(cfg.Faults)
	}
	return b, nil
}

// valBits is the stored-identifier width: the full trace ID, or its
// hash when cost-reduced.
func (cfg *Config) valBits() int {
	if cfg.CostReduced {
		return trace.HashBits
	}
	return trace.IDBits
}

// injectFaults applies one fault-injection opportunity to the table.
// Called once per update so rate-coupled injection streams stay
// aligned across configurations. Masks land on the same logical bits
// as in the array-of-structs layout (see Hybrid.injectFaults).
func (b *basic) injectFaults() {
	f := b.cfg.Faults.CorrFault(len(b.tabMeta), b.cfg.valBits(), 0, b.cfg.CounterBits)
	if !f.Fire {
		return
	}
	switch f.Slot {
	case faults.SlotValue:
		b.tabVal[f.Index] ^= f.Mask
	case faults.SlotAlt:
		b.tabAlt[f.Index] ^= f.Mask
	case faults.SlotCounter:
		b.tabMeta[f.Index] ^= uint32(uint8(f.Mask)) << 8
	}
	if b.chg != nil {
		b.chg.corr.add(uint32(f.Index))
	}
}

// storedVal converts a trace to the value representation the table
// stores: the full identifier, or its hash when cost-reduced.
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

// lookupInto fills tok with the prediction for the current path — the
// single lookup implementation shared by the scalar and batch paths.
func (b *basic) lookupInto(tok *basicToken) {
	idx := b.cfg.DOLC.IndexOf(&b.hist)
	m := b.tabMeta[idx]
	*tok = basicToken{idx: idx, predVal: b.tabVal[idx], altVal: b.tabAlt[idx]}
	if m&entValid != 0 {
		tok.pred.Valid = true
		b.cfg.present(&tok.pred, tok.predVal)
		if m&entAltValid != 0 {
			tok.pred.AltValid = true
			if !b.cfg.CostReduced {
				tok.pred.Alt = trace.ID(tok.altVal)
			}
		}
	}
}

// commit trains the table for the round described by tok and advances
// the path history — shared by Update and the batch loop.
func (b *basic) commit(tok *basicToken, actual *trace.Trace) {
	if b.cfg.Faults != nil {
		b.injectFaults()
	}
	actualVal := b.cfg.storedVal(actual)

	var ev Event
	b.stats.Predictions++
	correct := tok.pred.Valid && tok.predVal == actualVal
	if correct {
		b.stats.Correct++
		ev |= EvCorrect
	} else {
		if !tok.pred.Valid {
			b.stats.Cold++
			ev |= EvCold
		}
		if tok.pred.AltValid {
			b.stats.AltPresent++
			if tok.altVal == actualVal {
				b.stats.AltCorrect++
			}
		}
	}

	i := tok.idx
	m := b.tabMeta[i]
	switch {
	case m&entValid == 0:
		b.tabVal[i] = actualVal
		b.tabMeta[i] = entValid
	case b.tabVal[i] == actualVal:
		ctr := satInc(uint8(m>>8), b.cfg.CounterInc, b.ctrMaxT)
		b.tabMeta[i] = m&^uint32(0xff00) | uint32(ctr)<<8
	case uint8(m>>8) == 0:
		// Replace; the displaced prediction becomes the alternate (§6).
		b.tabAlt[i] = b.tabVal[i]
		b.tabVal[i] = actualVal
		b.tabMeta[i] = m | entAltValid
		ev |= EvReplaced
	default:
		ctr := satDec(uint8(m>>8), b.cfg.CounterDec)
		b.tabMeta[i] = m&^uint32(0xff00) | uint32(ctr)<<8 | entAltValid
		b.tabAlt[i] = actualVal
	}
	if b.cfg.Faults.StuckZero() {
		b.tabMeta[i] &^= 0xff00
	}

	b.hist.Push(actual.Hash)
	if b.cfg.Recorder != nil {
		b.cfg.Recorder.Record(ev)
	}
}

func (b *basic) Predict() Prediction {
	b.lookupInto(&b.tok)
	return b.tok.pred
}

func (b *basic) Update(actual *trace.Trace) {
	b.commit(&b.tok, actual)
	if c := b.chg; c != nil {
		c.corr.add(b.tok.idx)
	}
}

// PredictBatch implements BatchPredictor: one full Predict/Update round
// per trace with a local token and direct calls into the shared
// lookup/commit primitives (no interface dispatch per round). Like the
// hybrid's, it reads the change set once per batch.
func (b *basic) PredictBatch(actuals []trace.Trace, preds []Prediction) uint64 {
	before := b.stats.Correct
	c := b.chg
	var tok basicToken
	for i := range actuals {
		b.lookupInto(&tok)
		if preds != nil {
			preds[i] = tok.pred
		}
		b.commit(&tok, &actuals[i])
		if c != nil {
			c.corr.add(tok.idx)
		}
	}
	return b.stats.Correct - before
}

// UpdateBatch implements BatchPredictor.
func (b *basic) UpdateBatch(actuals []trace.Trace) uint64 {
	return b.PredictBatch(actuals, nil)
}

func (b *basic) Stats() Stats { return b.stats }
