package predictor

import (
	"encoding/binary"

	"pathtrace/internal/trace"
)

// This file is the paper backends' (basic, hybrid, costreduced) part
// of the state codec (codec.go). Every paper backend builds a *Hybrid;
// a basic state (kind 1) carries zero tags and no secondary entries.
// The fault injector's PRNG positions are part of the state, so a
// fault-injected session resumes the fault sequence it would have seen
// uninterrupted. Layout (little-endian):
//
//	kind    u8   (1 basic, 2 hybrid)
//	flags   u8   (RHS | cost-reduced | secondary-filter | has-faults)
//	geometry: nine u8 params, u16 RHS depth, five DOLC u8s
//	stats, hist (u16 ids), [RHS], [faults]   the mutable part
//	corr    u32 count, 24-byte records (u32 index | u16 tag | u64 val |
//	        u64 alt | u8 ctr | u8 alt-valid)
//	sec     u32 count, 13-byte records (u32 index | u64 val | u8 ctr)
//
// A delta repeats the kind and flags.

// kind + flags + geometry: the part of a state that never changes
const paperHeadBytes = 1 + 1 + 9 + 2 + 5

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

// paperLayout is the layout of a paper state of the given kind, flags
// and geometry.
func paperLayout(kind, flags uint8, g *Config) layout {
	valBits := trace.IDBits
	if flags&paperFlagCostReduced != 0 {
		valBits = trace.HashBits
	}
	l := layout{head: paperHeadBytes, key: 2, depth: g.Depth, faults: flags&paperFlagHasFaults != 0, n: 2}
	if flags&paperFlagUseRHS != 0 {
		l.rhs = g.RHSDepth
	}
	sec, tagBits := 0, 0
	if kind == paperKindHybrid {
		sec, tagBits = 1<<g.SecondaryBits, g.TagBits
	}
	l.tables[0] = newTable(1<<g.IndexBits).with(fTag, 2, tagBits).with(fVal, 8, valBits).
		with(fAlt, 8, valBits).with(fCtr, 1, g.CounterBits).with(fAux, 1, 1)
	l.tables[1] = newTable(sec).with(fVal, 8, valBits).with(fCtr, 1, g.SecCounterBits)
	return l
}

// paperHeadLayout reads a paper head. Its tables must be ones a Config
// may build.
func paperHeadLayout(state []byte) (layout, error) {
	r := &stateReader{b: state}
	kind, flags := uint8(r.uint(1)), uint8(r.uint(1))
	var g Config
	for _, f := range [...]*int{&g.Depth, &g.IndexBits, &g.SecondaryBits, &g.TagBits, &g.CounterBits,
		&g.CounterInc, &g.CounterDec, &g.SecCounterBits, &g.SecCounterDec} {
		*f = int(r.uint(1))
	}
	g.RHSDepth = int(r.uint(2))
	r.take(5) // the DOLC, which only the config check reads
	switch {
	case r.err != nil:
	case kind != paperKindBasic && kind != paperKindHybrid:
		r.fail("kind %d", kind)
	case flags&^uint8(paperFlagsKnown) != 0:
		r.fail("unknown flag bits %#x", flags)
	case g.IndexBits < 1 || g.IndexBits > maxIndexBits || g.SecondaryBits < 1 || g.SecondaryBits > maxSecondaryBits:
		r.fail("geometry %d/%d index bits", g.IndexBits, g.SecondaryBits)
	default:
		return paperLayout(kind, flags, &g), nil
	}
	return layout{}, r.err
}

// restore checks the saved head against p's own, but for the fault flag:
// a fault injector in the state is rebuilt from it, mid-stream PRNG
// positions included, and otherwise the config's is kept.
func (p *Hybrid) restore(r *stateReader, head []byte, l *layout) error {
	want := p.appendHead(nil)
	want[1] = want[1]&^paperFlagHasFaults | head[1]&paperFlagHasFaults
	if err := sameHead(head, want); err != nil {
		return err
	}
	m := readMutable[trace.HashedID](r, l, true)
	if m.faults != nil {
		p.cfg.Faults = m.faults
		p.r = newRules(&p.cfg)
	}
	p.stats, p.hist, p.rhs = m.stats, m.hist, m.rhs
	p.hist.SetFold(&p.fold)
	if p.cfg.Faults != nil {
		p.hist.SetFaultHook(p.cfg.Faults)
	}
	return nil
}

// paperKind returns the kind and flag bytes of a paper head of cfg,
// with or without an RHS.
func paperKind(cfg *Config, rhs bool) (kind, flags uint8) {
	kind = paperKindBasic
	if cfg.Hybrid {
		kind = paperKindHybrid
	}
	for bit, on := range [...]bool{rhs, cfg.CostReduced, *cfg.SecondaryFilter, cfg.Faults != nil} {
		if on {
			flags |= 1 << bit
		}
	}
	return kind, flags
}

// appendPaperHead appends the head of a paper state of cfg: kind,
// flags and geometry. Construction bounds every geometry field to its
// width.
func appendPaperHead(b []byte, cfg *Config, rhs bool) []byte {
	kind, flags := paperKind(cfg, rhs)
	b = append(b, kind, flags, uint8(cfg.Depth), uint8(cfg.IndexBits), uint8(cfg.SecondaryBits),
		uint8(cfg.TagBits), uint8(cfg.CounterBits), uint8(cfg.CounterInc),
		uint8(cfg.CounterDec), uint8(cfg.SecCounterBits), uint8(cfg.SecCounterDec))
	b = binary.LittleEndian.AppendUint16(b, uint16(cfg.RHSDepth))
	return append(b, uint8(cfg.DOLC.Depth), uint8(cfg.DOLC.Older), uint8(cfg.DOLC.Last),
		uint8(cfg.DOLC.Current), uint8(cfg.DOLC.Index))
}

func (p *Hybrid) layout() layout {
	kind, flags := paperKind(&p.cfg, p.rhs != nil)
	return paperLayout(kind, flags, &p.cfg)
}

func (p *Hybrid) appendHead(b []byte) []byte { return appendPaperHead(b, &p.cfg, p.rhs != nil) }

// appendMutable writes stats, the history register, and the RHS and
// injector state when present. The injector's plan is the one input
// construction does not bound.
func (p *Hybrid) appendMutable(b []byte) ([]byte, error) {
	b = appendLive(b, p.stats, &p.hist, p.rhs)
	if p.cfg.Faults == nil {
		return b, nil
	}
	fs := p.cfg.Faults.State()
	return appendFaults(b, &fs)
}

func (p *Hybrid) next(t, i int) int {
	if t == 0 {
		for ; i < len(p.corr) && p.corr[i].w&entValid == 0; i++ {
		}
		return i
	}
	for ; i < len(p.sec) && p.sec[i]&entValid == 0; i++ {
	}
	return i
}

// entry returns correlated (t 0) or secondary (t 1) entry i.
func (p *Hybrid) entry(t, i int) entry {
	if t == 0 {
		return entry{e: p.corr[i]}
	}
	return entry{e: corrEntry{w: p.sec[i]}}
}

func (p *Hybrid) setEntry(t, i int, e entry) {
	if t == 0 {
		p.corr[i] = e.e
	} else {
		p.sec[i] = e.e.w
	}
}

func (p *Hybrid) changes() **changeSet { return &p.chg }
