package predictor

import "pathtrace/internal/trace"

// The TAGE backend's part of the state codec (codec.go). Layout
// (little-endian):
//
//	version u8 (2)
//	geometry: nine u8 params (depth, index bits, secondary bits, tag
//	  bits, counter bits/inc/dec, sec counter bits/dec); the depth
//	  sets the tagged tables' history lengths (tageLens)
//	stats, hist (u16 ids)   the mutable part
//	base    u32 count, 13-byte records (u32 index | u64 val | u8 ctr)
//	tables  per tagged table: u32 count, 16-byte records
//	        (u32 index | u16 tag | u64 val | u8 ctr | u8 useful)
//
// A delta repeats the whole head.

const tageStateVersion = 2

// tageLayout is the layout of a TAGE state of geometry g with n tagged
// tables.
func tageLayout(g *Config, n int) layout {
	l := layout{head: 1 + 9, key: 1 + 9, depth: g.Depth, n: 1 + n}
	l.tables[0] = newTable(1<<g.SecondaryBits).with(fVal, 8, trace.IDBits).with(fCtr, 1, g.SecCounterBits)
	for t := 1; t <= n; t++ {
		l.tables[t] = newTable(1<<tageTableBits(g.IndexBits)).with(fTag, 2, g.TagBits).
			with(fVal, 8, trace.IDBits).with(fCtr, 1, g.CounterBits).with(fAux, 1, 2) // 2 bits: tageUMax
	}
	return l
}

// tageHeadLayout reads a TAGE head. Its tables must be ones a Config
// may build.
func tageHeadLayout(state []byte) (layout, error) {
	r := &stateReader{b: state}
	if v := r.uint(1); r.err == nil && v != tageStateVersion {
		r.fail("tage state version %d (supported: %d)", v, tageStateVersion)
	}
	var g Config
	for _, f := range [...]*int{&g.Depth, &g.IndexBits, &g.SecondaryBits, &g.TagBits,
		&g.CounterBits, &g.CounterInc, &g.CounterDec, &g.SecCounterBits, &g.SecCounterDec} {
		*f = int(r.uint(1))
	}
	switch {
	case r.err != nil:
	case g.IndexBits < 1 || g.IndexBits > maxIndexBits || g.SecondaryBits < 1 || g.SecondaryBits > maxSecondaryBits:
		r.fail("tage geometry %d/%d index bits", g.IndexBits, g.SecondaryBits)
	default:
		return tageLayout(&g, len(tageLens(g.Depth))), nil
	}
	return layout{}, r.err
}

func (t *tage) restore(r *stateReader, head []byte, l *layout) error {
	if err := sameHead(head, t.appendHead(nil)); err != nil {
		return err
	}
	m := readMutable[trace.HashedID](r, l, false)
	t.stats, t.hist = m.stats, m.hist
	return nil
}

func (t *tage) layout() layout { return tageLayout(&t.cfg, t.nTables) }

func (t *tage) appendHead(b []byte) []byte {
	cfg := &t.cfg
	return append(b, tageStateVersion, uint8(cfg.Depth), uint8(cfg.IndexBits), uint8(cfg.SecondaryBits),
		uint8(cfg.TagBits), uint8(cfg.CounterBits), uint8(cfg.CounterInc),
		uint8(cfg.CounterDec), uint8(cfg.SecCounterBits), uint8(cfg.SecCounterDec))
}

func (t *tage) appendMutable(b []byte) ([]byte, error) {
	return appendLive(b, t.stats, &t.hist, nil), nil
}

func (t *tage) next(ti, i int) int {
	if ti == 0 {
		for ; i < len(t.base) && !t.base[i].valid; i++ {
		}
		return i
	}
	tbl := t.tables[ti-1]
	for ; i < len(tbl) && !tbl[i].valid; i++ {
	}
	return i
}

// entry returns base entry i (ti 0) or entry i of tagged table ti-1,
// packed.
func (t *tage) entry(ti, i int) entry {
	var e tageEntry
	if ti == 0 {
		b := &t.base[i]
		e = tageEntry{val: b.val, ctr: b.ctr, valid: b.valid}
	} else {
		e = t.tables[ti-1][i]
	}
	if !e.valid {
		return entry{}
	}
	return entry{e: corrEntry{w: e.val | entValid | uint64(e.u)<<entAuxShift | uint64(e.ctr)<<entCtrShift | uint64(e.tag)<<entTagShift}}
}

func (t *tage) setEntry(ti, i int, e entry) {
	w := e.e.w
	if ti == 0 {
		t.base[i] = tageBase{val: w & entValMask, ctr: entCtr(w), valid: true}
	} else {
		t.tables[ti-1][i] = tageEntry{val: w & entValMask, tag: entTag(w), ctr: entCtr(w), u: uint8(w >> entAuxShift & 7), valid: true}
	}
}

func (t *tage) changes() **changeSet { return &t.chg }
