package predictor

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"pathtrace/internal/faults"
	"pathtrace/internal/trace"
)

// TestHybridTableBytes guards the packed table layout's footprint. A
// default serving predictor (ntpd's defaults: depth 7, 2^16 correlated
// entries, hybrid with RHS) holds 16 B per correlated and 8 B per
// secondary entry: 1,056,768 B of tables. Everything else it builds
// (history register, RHS, the struct itself) must fit in 16 KiB. The
// struct-of-arrays layout before it allocated 1,320,960 B of tables.
func TestHybridTableBytes(t *testing.T) {
	if got := unsafe.Sizeof(corrEntry{}); got != 16 {
		t.Fatalf("corrEntry is %d bytes, want 16", got)
	}
	cfg := Config{Depth: 7, IndexBits: 16, Hybrid: true, UseRHS: true}
	const (
		tables = 1<<16*16 + 1<<10*8
		slack  = 16 << 10
	)
	least := uint64(math.MaxUint64)
	for range 3 { // the least of three runs discounts stray allocations
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p := MustNew(cfg)
		runtime.ReadMemStats(&m1)
		if h := p.(*Hybrid); len(h.corr) != 1<<16 || len(h.sec) != 1<<10 {
			t.Fatalf("geometry %d/%d entries, want 65536/1024", len(h.corr), len(h.sec))
		}
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if least > tables+slack {
		t.Fatalf("default serving predictor allocates %d B, want ≤ %d B of tables + %d B", least, tables, slack)
	}
}

// laneConfig is a hybrid whose every lane is at its widest: 16-bit
// tags, 8-bit counters in both tables, and (full IDs) 36-bit values.
var laneConfig = Config{
	Backend: "hybrid", Depth: 3, IndexBits: 10, SecondaryBits: 4,
	TagBits: 16, CounterBits: 8, SecCounterBits: 8, UseRHS: true,
}

// laneState returns a laneConfig state whose entries fill each lane's
// edges: all ones, each lane's lowest and highest bit alone, and
// neighbouring lanes with opposite edge bits set, so a lane moved by
// one bit in either direction corrupts a neighbour or loses a bit.
func laneState(t testing.TB) []byte {
	t.Helper()
	st, err := mustBackend(t, laneConfig).Save(MustNew(laneConfig))
	if err != nil {
		t.Fatal(err)
	}
	st = st[:len(st)-8] // the two empty table counts
	const top = 1 << (trace.IDBits - 1)
	le := binary.LittleEndian
	corr := []struct {
		idx       uint32
		tag       uint16
		val, alt  uint64
		ctr, flag uint8
	}{
		{0, 0xFFFF, entValMask, entValMask, 0xFF, 1},
		{1, 0x0001, top, 1, 0x7F, 1},
		{2, 0x8000, 1, top, 0x80, 0},
		{3, 0x7FFE, top | 1, 0, 0x01, 1},
		{1023, 0x8001, 0xA_AAAA_AAAA, 0x5_5555_5555, 0xFE, 0},
	}
	st = le.AppendUint32(st, uint32(len(corr)))
	for _, e := range corr {
		st = le.AppendUint32(st, e.idx)
		st = le.AppendUint16(st, e.tag)
		st = le.AppendUint64(st, e.val)
		st = le.AppendUint64(st, e.alt)
		st = append(st, e.ctr, e.flag)
	}
	sec := []struct {
		idx uint32
		val uint64
		ctr uint8
	}{
		{0, entValMask, 0xFF},
		{1, top, 0x01},
		{2, 1, 0x80},
		{15, 0x5_5555_5555, 0x7F},
	}
	st = le.AppendUint32(st, uint32(len(sec)))
	for _, e := range sec {
		st = le.AppendUint32(st, e.idx)
		st = le.AppendUint64(st, e.val)
		st = append(st, e.ctr)
	}
	return st
}

// TestLaneBoundaryStateRoundTrip restores a state whose entries sit at
// every lane's edge and re-saves it: the bytes must come back
// unchanged, so no lane truncates or overlaps another.
func TestLaneBoundaryStateRoundTrip(t *testing.T) {
	st := laneState(t)
	b := mustBackend(t, laneConfig)
	p, err := b.Restore(st, laneConfig)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got, err := b.Save(p)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !bytes.Equal(got, st) {
		t.Fatalf("re-saved state differs:\n got %x\nwant %x", got, st)
	}
}

// entryFields is one table entry as the state codec writes it.
type entryFields struct {
	tag       uint16
	val, alt  uint64
	ctr, flag uint8
}

func corrFields(p *Hybrid, i int) entryFields {
	l, e := p.layout(), p.entry(0, i)
	b := l.tables[0].appendRecord(nil, i, &e)[4:]
	le := binary.LittleEndian
	return entryFields{tag: le.Uint16(b), val: le.Uint64(b[2:]), alt: le.Uint64(b[10:]), ctr: b[18], flag: b[19]}
}

func secFields(p *Hybrid, i int) entryFields {
	l, e := p.layout(), p.entry(1, i)
	b := l.tables[1].appendRecord(nil, i, &e)[4:]
	return entryFields{val: binary.LittleEndian.Uint64(b), ctr: b[8]}
}

// validEntries counts the valid entries of each table.
func (p *Hybrid) validEntries() (nCorr, nSec int) {
	for i := range p.corr {
		if p.corr[i].w&entValid != 0 {
			nCorr++
		}
	}
	for _, w := range p.sec {
		if w&entValid != 0 {
			nSec++
		}
	}
	return nCorr, nSec
}

// TestFaultLanes injects one fault per slot into a lane-boundary state
// and checks that exactly the targeted field of the targeted entry
// changed, by exactly the mask: no fault reaches a flag bit, a
// neighbouring lane, another entry or the other table.
func TestFaultLanes(t *testing.T) {
	const edges = 1<<(trace.IDBits-1) | 1
	cases := []struct {
		name string
		sec  bool
		idx  int
		f    faults.TableFault
		flip func(*entryFields, uint64)
	}{
		{"value", false, 1, faults.TableFault{Slot: faults.SlotValue, Mask: edges},
			func(e *entryFields, m uint64) { e.val ^= m }},
		{"alt", false, 2, faults.TableFault{Slot: faults.SlotAlt, Mask: edges},
			func(e *entryFields, m uint64) { e.alt ^= m }},
		{"tag", false, 1, faults.TableFault{Slot: faults.SlotTag, Mask: 0x8001},
			func(e *entryFields, m uint64) { e.tag ^= uint16(m) }},
		{"counter", false, 2, faults.TableFault{Slot: faults.SlotCounter, Mask: 0x81},
			func(e *entryFields, m uint64) { e.ctr ^= uint8(m) }},
		{"secondary value", true, 1, faults.TableFault{Slot: faults.SlotValue, Mask: edges},
			func(e *entryFields, m uint64) { e.val ^= m }},
		{"secondary counter", true, 2, faults.TableFault{Slot: faults.SlotCounter, Mask: 0x81},
			func(e *entryFields, m uint64) { e.ctr ^= uint8(m) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := paperRestore(laneState(t), laneConfig)
			if err != nil {
				t.Fatal(err)
			}
			p := r.(*Hybrid)
			tables := func() (corr, sec []entryFields) {
				for i := range p.corr {
					corr = append(corr, corrFields(p, i))
				}
				for i := range p.sec {
					sec = append(sec, secFields(p, i))
				}
				return corr, sec
			}
			corr, sec := tables()
			c0, s0 := p.validEntries()

			tc.f.Fire, tc.f.Index = true, tc.idx
			table := corr
			if tc.sec {
				table = sec
				p.secFault(tc.f)
			} else {
				p.corrFault(tc.f)
			}
			was := table[tc.idx]
			tc.flip(&table[tc.idx], tc.f.Mask)

			gotCorr, gotSec := tables()
			for i := range corr {
				if gotCorr[i] != corr[i] {
					t.Errorf("correlated entry %d = %+v, want %+v", i, gotCorr[i], corr[i])
				}
			}
			for i := range sec {
				if gotSec[i] != sec[i] {
					t.Errorf("secondary entry %d = %+v, want %+v", i, gotSec[i], sec[i])
				}
			}
			if table[tc.idx] == was {
				t.Errorf("mask %#x left entry %d unchanged", tc.f.Mask, tc.idx)
			}
			if c1, s1 := p.validEntries(); c1 != c0 || s1 != s0 {
				t.Errorf("valid entries %d/%d, were %d/%d", c1, s1, c0, s0)
			}
		})
	}
}

// TestWideIDStaysInValueLane feeds IDs with bits above trace.IDBits,
// which the wire can carry: they are stored cut to the value lane, so
// no flag, counter or tag changes and the state still restores.
func TestWideIDStaysInValueLane(t *testing.T) {
	cfg := Config{Backend: "hybrid", Depth: 3, IndexBits: 10, UseRHS: true}
	p := MustNew(cfg)
	wide := &trace.Trace{ID: ^trace.ID(entValMask) | 5, Hash: 3}
	for range 4 {
		p.Predict()
		p.Update(wide)
	}
	if pred := p.Predict(); !pred.Valid || pred.ID != 5 {
		t.Fatalf("predicted %+v, want ID 5", pred)
	}
	b := mustBackend(t, cfg)
	st, err := b.Save(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Restore(st, cfg); err != nil {
		t.Fatalf("state after wide IDs does not restore: %v", err)
	}
}
