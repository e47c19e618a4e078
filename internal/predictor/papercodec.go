package predictor

import (
	"encoding/binary"
	"fmt"
	"math"

	"pathtrace/internal/faults"
	"pathtrace/internal/history"
	"pathtrace/internal/trace"
)

// This file is the state codec of the paper backends (basic, hybrid,
// costreduced): the per-backend state section carried inside snapshot
// frames. The paper's predictor is pure state — tables, the path
// history register, the Return History Stack and (here) the fault
// injector's PRNG positions — so paperAppend writes those straight into
// the section and paperRestore installs them straight into freshly
// built tables. A restored session resumes bit-identically: every
// later Predict/Update round produces exactly what the original would
// have produced. That property is what turns a serving drain into a
// zero-loss session handoff (internal/snapshot + internal/serve).
//
// A state is captured at a round boundary: the token of an outstanding
// Predict is NOT part of it, so callers must snapshot between Update
// and the next Predict (the serving layer's request boundaries satisfy
// this by construction).
//
// Layout (little-endian):
//
//	kind    u8   (1 basic, 2 hybrid)
//	flags   u8   (RHS | cost-reduced | secondary-filter | has-faults)
//	geometry: nine u8 params, u16 RHS depth, five DOLC u8s
//	stats   six u64 counters
//	hist    register (u8 size, u8 fill, MaxSize u16 ids)
//	[RHS]   u16 max, u16 count, count registers   (flagged)
//	[faults] injector config + PRNG position      (flagged)
//	corr    u32 count, count 24-byte entries
//	sec     u32 count, count 13-byte entries
//
// Only valid table entries are carried, in ascending index order
// (tables are usually sparse). Decode is strict: the saved geometry
// must match the restoring config, every count is bounded by the
// remaining input before it drives a loop, each entry is range-checked
// as it is installed, unknown flag bits are rejected, and trailing
// bytes fail the decode.

const (
	paperCorrEntryBytes = 24 // u32 index | u16 tag | u64 val | u64 alt | u8 ctr | u8 flags
	paperSecEntryBytes  = 13 // u32 index | u64 val | u8 ctr
	stateRegBytes       = 2 + 2*history.MaxSize

	// kind + flags + geometry + stats + hist
	paperFixedBytes    = 1 + 1 + paperGeometryBytes + paperStatsBytes + stateRegBytes
	paperGeometryBytes = 9 + 2 + 5 // nine u8 params, u16 RHS depth, five DOLC u8s
	paperStatsBytes    = 6 * 8
	paperFaultsBytes   = 8 + 1 + 8 + 4*8 + 1 + 8 + 8 + 4*8 + 5*8
)

// paper-state kind bytes.
const (
	paperKindBasic  = 1
	paperKindHybrid = 2
)

// paper-state flag bits.
const (
	paperFlagUseRHS          = 1 << 0
	paperFlagCostReduced     = 1 << 1
	paperFlagSecondaryFilter = 1 << 2
	paperFlagHasFaults       = 1 << 3

	paperFlagsKnown = paperFlagUseRHS | paperFlagCostReduced | paperFlagSecondaryFilter | paperFlagHasFaults
)

// paperTables is the codec's view of a paper predictor. basic's single
// table stands in as the correlated table; it carries no tags, no
// secondary table and no RHS.
type paperTables struct {
	kind     uint8
	cfg      *Config
	stats    *Stats
	hist     *history.Reg
	rhs      *history.ReturnStack
	corrMeta []uint32 // tag<<16 | ctr<<8 | flags
	corrVal  []uint64
	corrAlt  []uint64
	secMeta  []uint16 // ctr<<8 | flags
	secVal   []uint64
}

func (p *Hybrid) tables() paperTables {
	return paperTables{
		kind: paperKindHybrid, cfg: &p.cfg, stats: &p.stats, hist: &p.hist, rhs: p.rhs,
		corrMeta: p.corrMeta, corrVal: p.corrVal, corrAlt: p.corrAlt,
		secMeta: p.secMeta, secVal: p.secVal,
	}
}

func (b *basic) tables() paperTables {
	return paperTables{
		kind: paperKindBasic, cfg: &b.cfg, stats: &b.stats, hist: &b.hist,
		corrMeta: b.tabMeta, corrVal: b.tabVal, corrAlt: b.tabAlt,
	}
}

func countValid[M uint16 | uint32](meta []M) int {
	n := 0
	for _, m := range meta {
		if m&entValid != 0 {
			n++
		}
	}
	return n
}

// paperAppend is the paper backends' Append hook. It sizes the
// section before writing, so dst grows at most once and a dst with
// room to spare is written without allocating.
func paperAppend(b []byte, p NextTracePredictor) ([]byte, error) {
	var t paperTables
	switch v := p.(type) {
	case *Hybrid:
		t = v.tables()
	case *basic:
		t = v.tables()
	default:
		return b, fmt.Errorf("%w: %T", ErrNotSnapshottable, p)
	}
	cfg := t.cfg
	le := binary.LittleEndian

	// Construction bounds every geometry field to its wire width; the
	// injector's plan is the one input it does not bound.
	flags := uint8(0)
	n := paperFixedBytes
	if t.rhs != nil {
		flags |= paperFlagUseRHS
		n += 4 + t.rhs.Depth()*stateRegBytes
	}
	var fs faults.InjectorState
	if cfg.Faults != nil {
		flags |= paperFlagHasFaults
		fs = cfg.Faults.State()
		if bits := fs.Config.Bits; bits < 0 || bits > 0xFF {
			return b, fmt.Errorf("%w: fault bits %d does not fit u8", ErrBadState, bits)
		}
		n += paperFaultsBytes
	}
	if cfg.CostReduced {
		flags |= paperFlagCostReduced
	}
	if *cfg.SecondaryFilter {
		flags |= paperFlagSecondaryFilter
	}
	nCorr, nSec := countValid(t.corrMeta), countValid(t.secMeta)
	n += 4 + nCorr*paperCorrEntryBytes + 4 + nSec*paperSecEntryBytes

	b = grow(b, n)
	b = append(b, t.kind, flags)
	b = append(b, uint8(cfg.Depth), uint8(cfg.IndexBits), uint8(cfg.SecondaryBits),
		uint8(cfg.TagBits), uint8(cfg.CounterBits), uint8(cfg.CounterInc),
		uint8(cfg.CounterDec), uint8(cfg.SecCounterBits), uint8(cfg.SecCounterDec))
	b = le.AppendUint16(b, uint16(cfg.RHSDepth))
	b = append(b, uint8(cfg.DOLC.Depth), uint8(cfg.DOLC.Older), uint8(cfg.DOLC.Last),
		uint8(cfg.DOLC.Current), uint8(cfg.DOLC.Index))
	b = appendStats(b, *t.stats)
	b = appendStateReg(b, t.hist.State())

	if t.rhs != nil {
		b = le.AppendUint16(b, uint16(t.rhs.Max()))
		b = le.AppendUint16(b, uint16(t.rhs.Depth()))
		for i := range t.rhs.Depth() {
			b = appendStateReg(b, t.rhs.Saved(i))
		}
	}

	if cfg.Faults != nil {
		b = le.AppendUint64(b, fs.Config.Seed)
		b = append(b, uint8(fs.Config.Bits))
		b = le.AppendUint64(b, fs.Config.Interval)
		for _, rate := range [...]float64{
			fs.Config.Table, fs.Config.Secondary, fs.Config.History, fs.Config.TraceCache,
		} {
			b = le.AppendUint64(b, math.Float64bits(rate))
		}
		var stuck uint8
		if fs.Config.StuckZero {
			stuck = 1
		}
		b = append(b, stuck)
		b = le.AppendUint64(b, fs.Fire)
		b = le.AppendUint64(b, fs.Eff)
		for _, tk := range fs.Ticks {
			b = le.AppendUint64(b, tk)
		}
		for _, v := range [...]uint64{
			fs.Stats.Opportunities, fs.Stats.TableFaults, fs.Stats.SecFaults,
			fs.Stats.HistoryFaults, fs.Stats.TCacheFaults,
		} {
			b = le.AppendUint64(b, v)
		}
	}

	b = le.AppendUint32(b, uint32(nCorr))
	for i, m := range t.corrMeta {
		if m&entValid == 0 {
			continue
		}
		var alt uint8
		if m&entAltValid != 0 {
			alt = 1
		}
		b = le.AppendUint32(b, uint32(i))
		b = le.AppendUint16(b, uint16(m>>16))
		b = le.AppendUint64(b, t.corrVal[i])
		b = le.AppendUint64(b, t.corrAlt[i])
		b = append(b, uint8(m>>8), alt)
	}
	b = le.AppendUint32(b, uint32(nSec))
	for i, m := range t.secMeta {
		if m&entValid == 0 {
			continue
		}
		b = le.AppendUint32(b, uint32(i))
		b = le.AppendUint64(b, t.secVal[i])
		b = append(b, uint8(m>>8))
	}
	return b, nil
}

// paperRestore is the paper backends' Restore hook. The kind byte picks
// the variant. cfg supplies the geometry, which must match the saved
// geometry exactly or the restore fails with ErrStateMismatch, and the
// process-local attachments: the Recorder, and a fault injector used
// only when the state carries none. When it does, the injector is
// rebuilt from it — mid-stream PRNG positions included — so a
// fault-injected session resumes the fault sequence it would have seen
// uninterrupted.
func paperRestore(state []byte, cfg Config) (NextTracePredictor, error) {
	r := &stateReader{b: state}
	kind := r.u8()
	flags := r.u8()
	if r.err == nil && flags&^uint8(paperFlagsKnown) != 0 {
		r.fail("unknown flag bits %#x", flags)
	}
	var saved Config
	saved.Depth = int(r.u8())
	saved.IndexBits = int(r.u8())
	saved.SecondaryBits = int(r.u8())
	saved.TagBits = int(r.u8())
	saved.CounterBits = int(r.u8())
	saved.CounterInc = int(r.u8())
	saved.CounterDec = int(r.u8())
	saved.SecCounterBits = int(r.u8())
	saved.SecCounterDec = int(r.u8())
	saved.RHSDepth = int(r.u16())
	saved.DOLC.Depth = int(r.u8())
	saved.DOLC.Older = int(r.u8())
	saved.DOLC.Last = int(r.u8())
	saved.DOLC.Current = int(r.u8())
	saved.DOLC.Index = int(r.u8())
	if r.err != nil {
		return nil, r.err
	}

	cfg.Hybrid = kind == paperKindHybrid
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := checkPaperGeometry(kind, flags, &saved, &full); err != nil {
		return nil, err
	}

	stats := r.stats()
	histState := r.reg()
	var rhs history.StackState
	if flags&paperFlagUseRHS != 0 {
		rhs.Max = int(r.u16())
		n := int(r.u16())
		if r.err == nil {
			if rem := len(r.b) - r.off; n*stateRegBytes > rem {
				r.fail("RHS count %d needs %d bytes, %d remain", n, n*stateRegBytes, rem)
			} else if rhs.Max != full.RHSDepth {
				r.fail("RHS capacity %d for depth %d", rhs.Max, full.RHSDepth)
			}
		}
		if r.err == nil {
			rhs.Regs = make([]history.RegState, n)
			for i := range rhs.Regs {
				rhs.Regs[i] = r.reg()
			}
		}
	}
	if flags&paperFlagHasFaults != 0 {
		if fs, ok := r.injector(); ok {
			full.Faults = faults.FromState(fs)
		}
	}
	if r.err != nil {
		return nil, r.err
	}

	hist, err := history.RegFromState(histState)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadState, err)
	}
	if hist.Size() != full.Depth+1 {
		return nil, fmt.Errorf("%w: history size %d for depth %d", ErrBadState, hist.Size(), full.Depth)
	}

	var p NextTracePredictor
	var t paperTables
	if full.Hybrid {
		h, err := newHybrid(full)
		if err != nil {
			return nil, err
		}
		if h.rhs != nil {
			if h.rhs, err = history.StackFromState(rhs); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadState, err)
			}
		}
		p, t = h, h.tables()
	} else {
		b, err := newBasic(full)
		if err != nil {
			return nil, err
		}
		p, t = b, b.tables()
	}
	*t.stats = stats
	*t.hist = hist
	if full.Faults != nil {
		t.hist.SetFaultHook(full.Faults)
	}

	valBits := full.valBits()
	what := "correlated"
	if !full.Hybrid {
		what = "table"
	}
	corr := entryCheck{what: what, size: len(t.corrMeta), ctrBits: full.CounterBits, valBits: valBits, prev: -1}
	n := r.count("correlated entries", paperCorrEntryBytes)
	for i := 0; i < n; i++ {
		idx, tag, val, alt, ctr, ef := r.u32(), r.u16(), r.u64(), r.u64(), r.u8(), r.u8()
		if r.err == nil && ef > 1 {
			r.fail("correlated entry %d flag byte %d", i, ef)
		}
		if r.err == nil {
			r.err = corr.check(idx, ctr, val, alt)
		}
		if r.err != nil {
			break
		}
		m := uint32(ctr)<<8 | entValid | uint32(ef)*entAltValid
		if full.Hybrid {
			m |= uint32(tag) << 16
		}
		t.corrMeta[idx], t.corrVal[idx], t.corrAlt[idx] = m, val, alt
	}

	sec := entryCheck{what: "secondary", size: len(t.secMeta), ctrBits: full.SecCounterBits, valBits: valBits, prev: -1}
	n = r.count("secondary entries", paperSecEntryBytes)
	if r.err == nil && n > 0 && !full.Hybrid {
		r.fail("basic predictor with secondary entries")
	}
	for i := 0; i < n; i++ {
		idx, val, ctr := r.u32(), r.u64(), r.u8()
		if r.err == nil {
			r.err = sec.check(idx, ctr, val)
		}
		if r.err != nil {
			break
		}
		t.secMeta[idx], t.secVal[idx] = uint16(ctr)<<8|entValid, val
	}

	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes after state", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

// checkPaperGeometry verifies the saved geometry matches a normalised
// configuration field for field, so a restore can never silently
// change what a session predicts (or how big its tables are). The
// basic table ignores the hybrid-only fields.
func checkPaperGeometry(kind, flags uint8, saved, full *Config) error {
	mism := func(field string, got, want any) error {
		return fmt.Errorf("%w: %s saved %v vs config %v", ErrStateMismatch, field, got, want)
	}
	useRHS := flags&paperFlagUseRHS != 0
	switch {
	case kind != paperKindBasic && kind != paperKindHybrid:
		return mism("kind", kind, "1 (basic) or 2 (hybrid)")
	case saved.Depth != full.Depth:
		return mism("depth", saved.Depth, full.Depth)
	case saved.IndexBits != full.IndexBits:
		return mism("index bits", saved.IndexBits, full.IndexBits)
	case saved.DOLC != full.DOLC:
		return mism("DOLC", saved.DOLC, full.DOLC)
	case (flags&paperFlagCostReduced != 0) != full.CostReduced:
		return mism("cost-reduced", !full.CostReduced, full.CostReduced)
	case saved.CounterBits != full.CounterBits || saved.CounterInc != full.CounterInc || saved.CounterDec != full.CounterDec:
		return mism("counter policy",
			[3]int{saved.CounterBits, saved.CounterInc, saved.CounterDec},
			[3]int{full.CounterBits, full.CounterInc, full.CounterDec})
	case !full.Hybrid:
		if useRHS {
			return mism("RHS", true, false)
		}
	case saved.SecondaryBits != full.SecondaryBits:
		return mism("secondary bits", saved.SecondaryBits, full.SecondaryBits)
	case saved.TagBits != full.TagBits:
		return mism("tag bits", saved.TagBits, full.TagBits)
	case saved.SecCounterBits != full.SecCounterBits || saved.SecCounterDec != full.SecCounterDec:
		return mism("secondary counter policy",
			[2]int{saved.SecCounterBits, saved.SecCounterDec},
			[2]int{full.SecCounterBits, full.SecCounterDec})
	case (flags&paperFlagSecondaryFilter != 0) != *full.SecondaryFilter:
		return mism("secondary filter", !*full.SecondaryFilter, *full.SecondaryFilter)
	case useRHS != full.UseRHS:
		return mism("RHS", useRHS, full.UseRHS)
	case full.UseRHS && saved.RHSDepth != full.RHSDepth:
		return mism("RHS depth", saved.RHSDepth, full.RHSDepth)
	}
	return nil
}

// entryCheck validates one table's saved entries in order: strictly
// ascending indices inside the table, counters within their width,
// values within the stored-identifier width.
type entryCheck struct {
	what             string
	size             int
	ctrBits, valBits int
	prev             int
}

func (c *entryCheck) check(idx uint32, ctr uint8, vals ...uint64) error {
	if int(idx) >= c.size {
		return fmt.Errorf("%w: %s index %d outside table of %d", ErrBadState, c.what, idx, c.size)
	}
	if int(idx) <= c.prev {
		return fmt.Errorf("%w: %s indices not strictly ascending at %d", ErrBadState, c.what, idx)
	}
	c.prev = int(idx)
	if int(ctr) > ctrMax(c.ctrBits) {
		return fmt.Errorf("%w: %s counter %d exceeds %d-bit max", ErrBadState, c.what, ctr, c.ctrBits)
	}
	for _, v := range vals {
		if v>>uint(c.valBits) != 0 {
			return fmt.Errorf("%w: %s value %#x exceeds %d bits", ErrBadState, c.what, v, c.valBits)
		}
	}
	return nil
}

// grow returns b with room for n more bytes, reallocating at most
// once. A new buffer gets the n bytes plus 1/64 headroom rather than
// append's amortized growth: serving keeps one snapshot buffer per
// connection between requests, so growth slack is memory held, and
// the headroom still absorbs the frame's checksum and a little table
// growth before the next snapshot must regrow it.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	return append(make([]byte, 0, len(b)+n+n/64), b...)
}

func appendStats(b []byte, s Stats) []byte {
	for _, v := range [...]uint64{
		s.Predictions, s.Correct, s.Cold, s.FromSecondary, s.AltCorrect, s.AltPresent,
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func appendStateReg(b []byte, r history.RegState) []byte {
	b = append(b, uint8(r.Size), uint8(r.N))
	for _, id := range r.IDs {
		b = binary.LittleEndian.AppendUint16(b, uint16(id))
	}
	return b
}

// stateReader walks an encoded state section with sticky error state.
// Every read is bounds-checked; overrunning the input sets ErrBadState.
type stateReader struct {
	b   []byte
	off int
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrBadState}, args...)...)
	}
}

func (r *stateReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail("state overrun at offset %d", r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *stateReader) u8() uint8 {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *stateReader) u16() uint16 {
	if s := r.take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (r *stateReader) u32() uint32 {
	if s := r.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *stateReader) u64() uint64 {
	if s := r.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (r *stateReader) rate(name string) float64 {
	v := math.Float64frombits(r.u64())
	if math.IsNaN(v) || v < 0 || v > 1 {
		r.fail("fault rate %s = %v outside [0, 1]", name, v)
	}
	return v
}

// count reads a u32 element count and verifies the remaining input can
// actually hold that many elemBytes-sized elements, bounding any
// allocation or loop derived from it by the input length.
func (r *stateReader) count(what string, elemBytes int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if rem := len(r.b) - r.off; n*elemBytes > rem || n < 0 {
		r.fail("%s count %d needs %d bytes, %d remain", what, n, n*elemBytes, rem)
		return 0
	}
	return n
}

func (r *stateReader) stats() Stats {
	return Stats{
		Predictions: r.u64(), Correct: r.u64(), Cold: r.u64(),
		FromSecondary: r.u64(), AltCorrect: r.u64(), AltPresent: r.u64(),
	}
}

func (r *stateReader) reg() history.RegState {
	var st history.RegState
	st.Size = int(r.u8())
	st.N = int(r.u8())
	for i := range st.IDs {
		st.IDs[i] = trace.HashedID(r.u16())
	}
	return st
}

// injector reads a fault injector's plan and stream position.
func (r *stateReader) injector() (faults.InjectorState, bool) {
	var f faults.InjectorState
	f.Config.Seed = r.u64()
	f.Config.Bits = int(r.u8())
	f.Config.Interval = r.u64()
	f.Config.Table = r.rate("table")
	f.Config.Secondary = r.rate("secondary")
	f.Config.History = r.rate("history")
	f.Config.TraceCache = r.rate("tcache")
	switch stuck := r.u8(); {
	case r.err != nil:
	case stuck == 0:
	case stuck == 1:
		f.Config.StuckZero = true
	default:
		r.fail("stuck-zero byte %d", stuck)
	}
	f.Fire = r.u64()
	f.Eff = r.u64()
	for i := range f.Ticks {
		f.Ticks[i] = r.u64()
	}
	f.Stats.Opportunities = r.u64()
	f.Stats.TableFaults = r.u64()
	f.Stats.SecFaults = r.u64()
	f.Stats.HistoryFaults = r.u64()
	f.Stats.TCacheFaults = r.u64()
	return f, r.err == nil
}
