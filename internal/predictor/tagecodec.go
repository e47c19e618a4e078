package predictor

import (
	"encoding/binary"
	"fmt"

	"pathtrace/internal/history"
	"pathtrace/internal/trace"
)

// State codec for the TAGE backend. Layout (little-endian):
//
//	version u8 (currently 1)
//	geometry: nine u8 params (depth, index bits, secondary bits, tag
//	  bits, counter bits/inc/dec, sec counter bits/dec)
//	nTables u8, then nTables u8 history lengths
//	stats   six u64 counters
//	hist    register (u8 size, u8 fill, MaxSize u16 ids)
//	base    u32 count, count 13-byte entries (u32 idx, u64 val, u8 ctr)
//	tables  per table: u32 count, count 17-byte entries
//	        (u32 idx, u16 tag, u64 val, u8 ctr, u8 u, u8 spare=0)
//
// The same strictness rules as the paper codec apply: counts are
// bounded by the remaining input before any allocation, every decoded
// field is range-checked against the geometry, and trailing bytes fail
// the decode.

const (
	tageStateVersion = 1

	tageBaseEntryBytes = 13 // u32 idx | u64 val | u8 ctr
	tageEntryBytes     = 17 // u32 idx | u16 tag | u64 val | u8 ctr | u8 u | u8 spare
)

// tageSave is the backend Save hook.
func tageSave(p NextTracePredictor) ([]byte, error) {
	t, ok := p.(*tage)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrNotSnapshottable, p)
	}
	le := binary.LittleEndian
	cfg := t.cfg
	b := make([]byte, 0, t.encodedSize())
	b = append(b, tageStateVersion)
	b = append(b, uint8(cfg.Depth), uint8(cfg.IndexBits), uint8(cfg.SecondaryBits),
		uint8(cfg.TagBits), uint8(cfg.CounterBits), uint8(cfg.CounterInc),
		uint8(cfg.CounterDec), uint8(cfg.SecCounterBits), uint8(cfg.SecCounterDec))
	b = append(b, uint8(t.nTables))
	for i := 0; i < t.nTables; i++ {
		b = append(b, uint8(t.lens[i]))
	}
	b = appendStats(b, t.stats)
	b = appendStateReg(b, t.hist.State())

	nValid := 0
	for i := range t.base {
		if t.base[i].valid {
			nValid++
		}
	}
	b = le.AppendUint32(b, uint32(nValid))
	for i := range t.base {
		e := &t.base[i]
		if !e.valid {
			continue
		}
		b = le.AppendUint32(b, uint32(i))
		b = le.AppendUint64(b, e.val)
		b = append(b, e.ctr)
	}

	for ti := 0; ti < t.nTables; ti++ {
		tbl := t.tables[ti]
		nValid = 0
		for i := range tbl {
			if tbl[i].valid {
				nValid++
			}
		}
		b = le.AppendUint32(b, uint32(nValid))
		for i := range tbl {
			e := &tbl[i]
			if !e.valid {
				continue
			}
			b = le.AppendUint32(b, uint32(i))
			b = le.AppendUint16(b, e.tag)
			b = le.AppendUint64(b, e.val)
			b = append(b, e.ctr, e.u, 0)
		}
	}
	return b, nil
}

func (t *tage) encodedSize() int {
	n := 1 + 9 + 1 + t.nTables + paperStatsBytes + stateRegBytes
	n += 4 + len(t.base)*tageBaseEntryBytes
	for i := 0; i < t.nTables; i++ {
		n += 4 + len(t.tables[i])*tageEntryBytes
	}
	return n
}

// tageRestore is the backend Restore hook: it rebuilds a TAGE predictor
// from a state section, verifying the saved geometry matches cfg so a
// restore can never silently change what a session predicts.
func tageRestore(state []byte, cfg Config) (NextTracePredictor, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &stateReader{b: state}
	if v := r.u8(); r.err == nil && v != tageStateVersion {
		return nil, fmt.Errorf("%w: tage state version %d (supported: %d)", ErrBadState, v, tageStateVersion)
	}

	geom := [9]int{int(r.u8()), int(r.u8()), int(r.u8()), int(r.u8()),
		int(r.u8()), int(r.u8()), int(r.u8()), int(r.u8()), int(r.u8())}
	want := [9]int{full.Depth, full.IndexBits, full.SecondaryBits, full.TagBits,
		full.CounterBits, full.CounterInc, full.CounterDec,
		full.SecCounterBits, full.SecCounterDec}
	if r.err == nil && geom != want {
		return nil, fmt.Errorf("%w: tage geometry saved %v vs config %v", ErrStateMismatch, geom, want)
	}

	t, err := newTage(full)
	if err != nil {
		return nil, err
	}
	nTables := int(r.u8())
	if r.err == nil && nTables != t.nTables {
		return nil, fmt.Errorf("%w: tage table count saved %d vs config %d", ErrStateMismatch, nTables, t.nTables)
	}
	for i := 0; i < nTables && r.err == nil; i++ {
		if l := int(r.u8()); r.err == nil && l != t.lens[i] {
			return nil, fmt.Errorf("%w: tage table %d length saved %d vs config %d", ErrStateMismatch, i, l, t.lens[i])
		}
	}

	t.stats = r.stats()

	histState := r.reg()
	if r.err == nil {
		hist, err := history.RegFromState(histState)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadState, err)
		}
		if hist.Size() != full.Depth+1 {
			return nil, fmt.Errorf("%w: history size %d for depth %d", ErrBadState, hist.Size(), full.Depth)
		}
		t.hist = hist
	}

	maxVal := uint64(1)<<trace.IDBits - 1
	if n := r.count("tage base entries", tageBaseEntryBytes); r.err == nil {
		prev := -1
		secMax := uint8(ctrMax(full.SecCounterBits))
		for i := 0; i < n; i++ {
			idx := r.u32()
			val := r.u64()
			ctr := r.u8()
			if r.err != nil {
				break
			}
			if int(idx) >= len(t.base) || int(idx) <= prev {
				return nil, fmt.Errorf("%w: tage base index %d (prev %d, size %d)", ErrBadState, idx, prev, len(t.base))
			}
			prev = int(idx)
			if ctr > secMax || val > maxVal {
				return nil, fmt.Errorf("%w: tage base entry %d out of range", ErrBadState, idx)
			}
			t.base[idx] = tageBase{val: val, ctr: ctr, valid: true}
		}
	}

	ctrMaxV := uint8(ctrMax(full.CounterBits))
	for ti := 0; ti < t.nTables && r.err == nil; ti++ {
		n := r.count("tage table entries", tageEntryBytes)
		if r.err != nil {
			break
		}
		prev := -1
		for i := 0; i < n; i++ {
			idx := r.u32()
			tag := r.u16()
			val := r.u64()
			ctr := r.u8()
			u := r.u8()
			spare := r.u8()
			if r.err != nil {
				break
			}
			if int(idx) >= len(t.tables[ti]) || int(idx) <= prev {
				return nil, fmt.Errorf("%w: tage table %d index %d (prev %d, size %d)", ErrBadState, ti, idx, prev, len(t.tables[ti]))
			}
			prev = int(idx)
			if ctr > ctrMaxV || u > tageUMax || val > maxVal || tag&^uint16(t.tagMask) != 0 || spare != 0 {
				return nil, fmt.Errorf("%w: tage table %d entry %d out of range", ErrBadState, ti, idx)
			}
			t.tables[ti][idx] = tageEntry{val: val, tag: tag, ctr: ctr, u: u, valid: true}
		}
	}

	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes after tage state", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return t, nil
}
