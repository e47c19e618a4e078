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
// Each table entry is packed into machine words (see the ent*
// constants): a correlated entry is one corrEntry, a 16-byte pair of
// the packed word w (value, flags, counter and tag) and the alternate
// identifier; a secondary entry is one packed uint64 of value, valid
// flag and counter. Four correlated entries share a cache line, so a
// lookup or update round touches one line per table — two in all —
// with no pointer chasing and no padding, and a read-modify-write of
// one word per table. The default serving geometry (2^16 correlated and
// 2^10 secondary entries) holds 1 MiB + 8 KiB of tables. The batched
// round loop (PredictBatch) sweeps these slices directly.
type Hybrid struct {
	cfg  Config
	hist history.Reg
	rhs  *history.ReturnStack // nil when RHS disabled
	fold history.Fold         // cfg.DOLC compiled; hist keeps it rolled

	corr []corrEntry // correlated table
	sec  []uint64    // secondary table, nil in a basic predictor

	stats   Stats
	tok     Token
	r       rules
	tagMask uint32 // 0 in a basic predictor: no tags
	secMask uint32

	// chg records the slots changed since the last delta mark; nil
	// until the predictor is first marked (see delta.go). It sits last
	// so the round path's fields keep their offsets.
	chg *changeSet
}

// corrEntry is one correlated-table entry: the packed word w and the
// alternate identifier, which only an entry with entAltValid set
// predicts.
type corrEntry struct {
	w, alt uint64
}

// Packed-entry lanes, shared by both tables' words. The value lane
// holds a stored identifier (valBits ≤ trace.IDBits wide); counters
// are at most 8 bits and tags at most 16 (Config.withDefaults), so
// every lane fits. A secondary word never sets entAltValid or a tag.
//
//	bits  0–35  stored value
//	bit   36    valid
//	bit   37    alternate valid
//	bits 40–47  counter
//	bits 48–63  tag
const (
	entValMask  = 1<<trace.IDBits - 1
	entValid    = 1 << trace.IDBits
	entAltValid = entValid << 1
	entCtrShift = 40
	entCtrMask  = 0xff << entCtrShift
	entTagShift = 48
	entTagMask  = 0xffff << entTagShift
)

// The flag bits end below the counter lane, or this constant is
// negative and does not compile.
const _ = uint(entCtrShift - (trace.IDBits + 2))

func entCtr(w uint64) uint8  { return uint8(w >> entCtrShift) }
func entTag(w uint64) uint16 { return uint16(w >> entTagShift) }

// withCtr returns w with its counter lane set to ctr.
func withCtr(w uint64, ctr uint8) uint64 {
	return w&^entCtrMask | uint64(ctr)<<entCtrShift
}

// Token captures everything a Lookup decided, so the matching update
// can be applied later (possibly much later, under delayed updates).
type Token struct {
	CorrIdx      uint32
	SecIdx       uint32
	Tag          uint16
	Pred         Prediction
	predVal      uint64
	altVal       uint64
	secSaturated bool
}

func newHybrid(cfg Config) (*Hybrid, error) {
	h, err := history.NewReg(cfg.Depth + 1)
	if err != nil {
		return nil, err
	}
	p := &Hybrid{
		cfg:  cfg,
		hist: h,
		corr: make([]corrEntry, 1<<cfg.IndexBits),
		r:    newRules(&cfg),
	}
	// A basic predictor builds none of the hybrid parts; their geometry
	// stays in cfg, where the state codec carries it.
	if cfg.Hybrid {
		p.sec = make([]uint64, 1<<cfg.SecondaryBits)
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
	p.fold = cfg.DOLC.Fold()
	p.hist.SetFold(&p.fold)
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
// tag bits, so no fault lands on a tag.
func (p *Hybrid) injectFaults() {
	inj := p.cfg.Faults
	tagBits := 0
	if p.sec != nil {
		tagBits = p.cfg.TagBits
	}
	if f := inj.CorrFault(len(p.corr), p.cfg.valBits(), tagBits, p.cfg.CounterBits); f.Fire {
		p.corrFault(f)
	}
	if p.sec == nil {
		return
	}
	if f := inj.SecFault(len(p.sec), p.cfg.valBits(), p.cfg.SecCounterBits); f.Fire {
		p.secFault(f)
	}
}

// corrFault XORs a fault's mask into one lane of a correlated entry:
// the value lane, the alternate word, or the tag or counter lane. Every
// mask fits its field's width, so no fault reaches a flag bit or a
// neighbouring lane.
func (p *Hybrid) corrFault(f faults.TableFault) {
	e := &p.corr[f.Index]
	old := *e
	switch f.Slot {
	case faults.SlotValue:
		e.w ^= f.Mask & entValMask
	case faults.SlotAlt:
		e.alt ^= f.Mask
	case faults.SlotTag:
		e.w ^= uint64(uint16(f.Mask)) << entTagShift
	case faults.SlotCounter:
		e.w ^= uint64(uint8(f.Mask)) << entCtrShift
	}
	if *e != old {
		p.chg.add(0, uint32(f.Index))
	}
}

// secFault XORs a fault's mask into the value or counter lane of a
// secondary entry.
func (p *Hybrid) secFault(f faults.TableFault) {
	old := p.sec[f.Index]
	switch f.Slot {
	case faults.SlotValue:
		p.sec[f.Index] ^= f.Mask & entValMask
	case faults.SlotCounter:
		p.sec[f.Index] ^= uint64(uint8(f.Mask)) << entCtrShift
	}
	if p.sec[f.Index] != old {
		p.chg.add(1, uint32(f.Index))
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
// single lookup implementation: Predict, Lookup and the batch loop all
// run it, so the scalar and batched paths cannot diverge. It reads the
// DOLC index from the register's fold and the round's entries, and
// selects by rules.choose, which the unbounded predictor runs over its
// own entries; choose inlines, so a lookup is one call. It leaves
// tok.Pred's identifiers to Config.presentTok, which a round that
// returns no prediction skips. Taking the token by pointer keeps the
// (large) Token off the copy path.
func (p *Hybrid) lookupInto(tok *Token) {
	idx := p.fold.Index(&p.hist)
	h0 := uint32(p.hist.At(0))
	*tok = Token{
		CorrIdx: idx,
		SecIdx:  h0 & p.secMask,
		Tag:     uint16(h0 & p.tagMask),
	}
	var sw uint64
	if p.sec != nil {
		sw = p.sec[tok.SecIdx]
	}
	p.r.choose(tok, sw, &p.corr[idx])
}

// choose completes a round's lookup in tok, whose indices and tag are
// set, from the entries the round read: sw the secondary word (0
// without a secondary table) and e the correlated entry. It is the
// selection rule of §3.3 for the bounded and unbounded predictors
// alike: a saturated secondary counter wins; otherwise the correlated
// entry when it is valid and its tag matches, else the secondary. A
// secondary word has no alternate or tag, so the chosen word alone
// sets tok.Pred's flags and the stored values training reads, and
// Config.presentTok derives the identifiers from them. A stored value
// the flags mark unused may be left set.
func (r *rules) choose(tok *Token, sw uint64, e *corrEntry) {
	w := e.w
	tok.secSaturated = sw&(entValid|entCtrMask) == r.secSatWord
	if tok.secSaturated || w&(entValid|entTagMask) != entValid|uint64(tok.Tag)<<entTagShift {
		w = sw
		tok.Pred.FromSecondary = sw&entValid != 0
	}
	tok.Pred.Valid = w&entValid != 0
	tok.Pred.AltValid = w&entAltValid != 0
	tok.predVal = w & entValMask
	tok.altVal = e.alt
}

// Lookup computes the prediction for the next trace from the current
// path history, without changing any state.
func (p *Hybrid) Lookup() (Prediction, Token) {
	var tok Token
	p.lookupInto(&tok)
	p.cfg.presentTok(&tok)
	return tok.Pred, tok
}

// secWord returns the secondary word at i, or nil in a basic predictor.
func (p *Hybrid) secWord(i uint32) *uint64 {
	if p.sec == nil {
		return nil
	}
	return &p.sec[i]
}

// rules is the paper kernel's training policy, hoisted once from a
// normalised Config off the round path: the counter widths and steps,
// the secondary filter, stuck-at-zero faults and the event sink.
type rules struct {
	ctrMaxC, ctrMaxS int    // ctrMax(CounterBits), ctrMax(SecCounterBits)
	secSatWord       uint64 // a valid secondary word's flag and counter lanes at ctrMaxS
	inc, dec, secDec int
	filter           bool
	faults           *faults.Injector
	rec              Recorder
}

func newRules(cfg *Config) rules {
	return rules{
		ctrMaxC: ctrMax(cfg.CounterBits), ctrMaxS: ctrMax(cfg.SecCounterBits),
		inc: cfg.CounterInc, dec: cfg.CounterDec, secDec: cfg.SecCounterDec,
		filter: *cfg.SecondaryFilter, faults: cfg.Faults, rec: cfg.Recorder,
		secSatWord: entValid | uint64(ctrMax(cfg.SecCounterBits))<<entCtrShift,
	}
}

// train scores one round into s and trains its entries: tok is the
// round's lookup, sw the secondary word it read (nil without a
// secondary table), e the correlated entry and actual the stored value
// of the trace that followed. It is the one training routine of the
// bounded and unbounded predictors, which differ only in where their
// entries live. A marked predictor trains through changeSet.train,
// which records the entries whose bytes train changed.
func (r *rules) train(s *Stats, tok *Token, sw *uint64, e *corrEntry, actual uint64) {
	var ev Event
	s.Predictions++
	correct := tok.Pred.Valid && tok.predVal == actual
	if correct {
		s.Correct++
		ev |= EvCorrect
	} else {
		if !tok.Pred.Valid {
			s.Cold++
			ev |= EvCold
		}
		if tok.Pred.AltValid {
			s.AltPresent++
			if tok.altVal == actual {
				s.AltCorrect++
			}
		}
	}
	if tok.Pred.FromSecondary {
		s.FromSecondary++
		ev |= EvFromSecondary
	}

	// Secondary table update.
	if sw != nil {
		w := *sw
		switch {
		case w&entValid == 0:
			w = actual | entValid
		case w&entValMask == actual:
			w = withCtr(w, satInc(entCtr(w), 1, r.ctrMaxS))
		case w&entCtrMask == 0:
			w = w&^entValMask | actual
			ev |= EvReplaced
		default:
			w = withCtr(w, satDec(entCtr(w), r.secDec))
		}
		if r.faults.StuckZero() {
			w &^= entCtrMask
		}
		*sw = w
	}

	// Correlated table update — filtered when a saturated secondary was
	// correct, so single-successor traces do not pollute it.
	if r.filter && tok.secSaturated && tok.predVal == actual {
		if r.rec != nil {
			r.rec.Record(ev)
		}
		return
	}
	w := e.w
	switch {
	case w&entValid == 0 || entTag(w) != tok.Tag:
		if w&entValid != 0 {
			ev |= EvReplaced
		}
		w = uint64(tok.Tag)<<entTagShift | entValid | actual
		if sw != nil {
			// A fresh tagged entry starts with no alternate. A fresh
			// basic entry keeps its alternate word, which a fault may
			// have flipped while the slot was empty: saved basic states
			// carry that word (see TestPaperStateBytesPinned).
			e.alt = 0
		}
	case w&entValMask == actual:
		w = withCtr(w, satInc(entCtr(w), r.inc, r.ctrMaxC))
	case w&entCtrMask == 0:
		e.alt = w & entValMask
		w = w&^entValMask | actual | entAltValid
		ev |= EvReplaced
	default:
		w = withCtr(w, satDec(entCtr(w), r.dec)) | entAltValid
		e.alt = actual
	}
	if r.faults.StuckZero() {
		w &^= entCtrMask
	}
	e.w = w
	if r.rec != nil {
		r.rec.Record(ev)
	}
}

// CommitUpdate trains the tables for a prediction described by tok,
// given the trace that actually followed: it draws the round's faults
// and hands the round's entries to rules.train, through changeSet.train
// in a marked predictor. It is the scalar round's
// one training step; PredictBatch writes the same steps out. It does
// not touch the path history; pair it with Advance.
func (p *Hybrid) CommitUpdate(tok *Token, actual *trace.Trace) {
	if p.cfg.Faults != nil {
		p.injectFaults()
	}
	sw, e, val := p.secWord(tok.SecIdx), &p.corr[tok.CorrIdx], p.cfg.storedVal(actual)
	if c := p.chg; c != nil {
		c.train(&p.r, &p.stats, tok, sw, e, val)
	} else {
		p.r.train(&p.stats, tok, sw, e, val)
	}
}

// train runs r.train on a marked paper predictor's round, then records
// the slots whose bytes it changed: the secondary word, and the
// correlated word or its alternate, which the secondary filter may
// leave unwritten. Comparing here rather than in r.train keeps the
// comparisons off an unmarked predictor's rounds.
func (c *changeSet) train(r *rules, s *Stats, tok *Token, sw *uint64, e *corrEntry, actual uint64) {
	var sec uint64
	if sw != nil {
		sec = *sw
	}
	corr := *e
	r.train(s, tok, sw, e, actual)
	if sw != nil && *sw != sec {
		c.t[1].add(tok.SecIdx)
	}
	if *e != corr {
		c.t[0].add(tok.CorrIdx)
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
	p.cfg.presentTok(&p.tok)
	return p.tok.Pred
}

// Update implements NextTracePredictor.
func (p *Hybrid) Update(actual *trace.Trace) {
	p.CommitUpdate(&p.tok, actual)
	p.Advance(actual)
}

// PredictBatch implements BatchPredictor: one full Predict/Update round
// per trace, with the prediction made before actuals[i] is revealed
// written to preds[i] (preds may be nil). The loop keeps the round
// token local and calls the shared lookup and training primitives
// directly — no interface dispatch, no Prediction or Token copies per
// round. The change set is read once per batch, so an unmarked
// predictor pays one register test per round.
func (p *Hybrid) PredictBatch(actuals []trace.Trace, preds []Prediction) uint64 {
	before := p.stats.Correct
	c := p.chg
	var tok Token
	for i := range actuals {
		p.lookupInto(&tok)
		if preds != nil {
			p.cfg.presentTok(&tok)
			preds[i] = tok.Pred
		}
		// CommitUpdate, written out so that a round makes one call to
		// train.
		if p.cfg.Faults != nil {
			p.injectFaults()
		}
		sw, e, actual := p.secWord(tok.SecIdx), &p.corr[tok.CorrIdx], p.cfg.storedVal(&actuals[i])
		if c != nil {
			c.train(&p.r, &p.stats, &tok, sw, e, actual)
		} else {
			p.r.train(&p.stats, &tok, sw, e, actual)
		}
		p.Advance(&actuals[i])
	}
	return p.stats.Correct - before
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
// store: the full identifier, or its hash when cost-reduced. An
// identifier is cut to its trace.IDBits, the width of the value lane,
// so an out-of-range ID (the wire carries 64 bits) cannot spill into
// an entry's flags.
func (cfg *Config) storedVal(tr *trace.Trace) uint64 {
	if cfg.CostReduced {
		return uint64(tr.Hash)
	}
	return uint64(tr.ID) & entValMask
}

// presentTok fills tok.Pred's identifiers from the values rules.choose
// picked. A cost-reduced predictor stores hashes only, so it presents
// no alternate identifier.
func (cfg *Config) presentTok(tok *Token) {
	if !tok.Pred.Valid {
		return
	}
	cfg.present(&tok.Pred, tok.predVal)
	if tok.Pred.AltValid && !cfg.CostReduced {
		tok.Pred.Alt = trace.ID(tok.altVal)
	}
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
