package predictor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"pathtrace/internal/faults"
	"pathtrace/internal/history"
	"pathtrace/internal/trace"
)

// This file is the state codec every backend shares: the state section
// a snapshot frame carries (internal/snapshot). A predictor is pure
// state, so a restored session resumes bit-identically: every later
// round predicts exactly what the original's would have. That is what
// lets a serving drain spill sessions to disk, and a client restore its
// own frame, without losing anything (internal/serve).
//
// Every backend's section has one shape (little-endian):
//
//	head     the backend's geometry, fixed for the life of a state; a
//	         restore refuses a head other than its config's own
//	mutable  stats (six u64s), the history register (u8 size, u8 fill,
//	         history.MaxSize ids: u16 hashed or u64 full), [RHS: u16
//	         capacity, u16 count, count registers], [fault injector]
//	tables   per table: u32 count, then that many records, each a u32
//	         slot and the entry's fields, slots strictly ascending
//
// Only valid entries are carried. A backend declares its head, its
// mutable part and its tables (sectioned); this file and delta.go do
// the rest for every backend alike. Decode is strict: a count is
// bounded by the remaining input before it drives a loop, every field
// is range-checked, and trailing bytes fail it. A state is captured at
// a round boundary: the token of an outstanding Predict is not in it.

// entry is one table slot as the codec reads and writes it: the
// entry's word and alternate in Hybrid's packed layout (corrEntry), and
// the key an unbounded slot holds. It is an unbounded table's slot,
// small enough to pass in registers. A backend packs its own entries
// into one: TAGE keeps its useful counter in the aux lane.
type entry = ubSlot

// entAuxShift is the aux lane of an entry's word, bits 37–39: the
// alternate's valid flag (entAltValid) or TAGE's useful counter.
const entAuxShift = trace.IDBits + 1

// The fields of an entry, in record order.
const (
	fKey = iota // an unbounded slot's exact key
	fTag
	fVal
	fAlt // an alternate identifier
	fCtr
	fAux
	nFields
)

// entryOf packs fields, each within its lane, into a valid entry.
func entryOf(v *[nFields]uint64) entry {
	w := v[fVal] | entValid | v[fAux]<<entAuxShift | v[fCtr]<<entCtrShift | v[fTag]<<entTagShift
	return entry{key: v[fKey], e: corrEntry{w: w, alt: v[fAlt]}}
}

// maxTables is the most tables a backend declares: TAGE's base table
// and its tagged tables.
const maxTables = 1 + maxTageTables

// table is one table of a state section: its slots, the fields its
// records carry and the bounds a decoded record keeps.
type table struct {
	slots    int // record slots lie below slots
	min, max int // bounds on the record count
	size     int // record bytes
	width    [nFields]uint8
	limit    [nFields]uint64
	// over holds, per word of a record (recordWord), the bits no field
	// within its limit sets, so a record checks with one AND a word.
	over [maxRecordWords]uint64
}

// maxRecordWords is the most words a record spans: the largest, an
// unbounded correlated record, is 30 bytes. Every record is at least
// 8 bytes, since every table carries a u64 value.
const maxRecordWords = 4

// newTable returns a table of n slots, any number of them filled, whose
// records carry no field yet.
func newTable(n int) table { return table{slots: n, max: n, size: 4} }

// with returns t with its records carrying field f, w bytes wide (0:
// not carried), of at most bits bits. Every limit is 2^bits-1, so the
// bits above it are a mask.
func (t table) with(f int, w uint8, bits int) table {
	t.width[f], t.limit[f] = w, 1<<bits-1
	var over [8*maxRecordWords + 8]byte // the record's bytes, then room for the last field's spill
	t.size = 4
	for f, w := range t.width {
		binary.LittleEndian.PutUint64(over[t.size:], ^t.limit[f])
		t.size += int(w)
	}
	for k := range t.over {
		t.over[k] = binary.LittleEndian.Uint64(over[t.recordWord(k):])
	}
	return t
}

// recordWord is the offset of a record's word k: 8k, but for the last,
// which ends where the record does.
func (t *table) recordWord(k int) int { return max(min(8*k, t.size-8), 0) }

// fits reports whether every field of rec, one record of t, is within
// its limit.
func (t *table) fits(rec []byte) bool {
	var over uint64
	for k := range (t.size + 7) / 8 {
		over |= binary.LittleEndian.Uint64(rec[t.recordWord(k):]) & t.over[k]
	}
	return over == 0
}

func (t *table) appendRecord(b []byte, i int, e *entry) []byte {
	w := e.e.w
	b = appendUint(appendUint(b, uint64(i), 4), e.key, t.width[fKey])
	b = appendUint(appendUint(b, w>>entTagShift, t.width[fTag]), w&entValMask, t.width[fVal])
	b = appendUint(appendUint(b, e.e.alt, t.width[fAlt]), w>>entCtrShift&0xff, t.width[fCtr])
	return appendUint(b, w>>entAuxShift&7, t.width[fAux])
}

// appendUint appends v's w low bytes, w one of 0, 1, 2, 4 or 8.
func appendUint(b []byte, v uint64, w uint8) []byte {
	le := binary.LittleEndian
	switch w {
	case 1:
		return append(b, uint8(v))
	case 2:
		return le.AppendUint16(b, uint16(v))
	case 4:
		return le.AppendUint32(b, uint32(v))
	case 8:
		return le.AppendUint64(b, v)
	}
	return b
}

// layout is what a head says of the rest of its state section.
type layout struct {
	head   int  // head bytes
	key    int  // leading head bytes a delta repeats
	full   bool // registers hold full identifiers, not hashed ones
	depth  int  // the history register holds depth+1 identifiers
	rhs    int  // RHS capacity, 0 without an RHS
	faults bool // the mutable part ends with a fault injector's state
	n      int  // tables
	tables [maxTables]table
}

// sectioned is a backend's part of the codec, which its predictor
// implements. Tables are numbered from 0 in state order.
type sectioned interface {
	NextTracePredictor
	layout() layout
	appendHead(b []byte) []byte
	// appendMutable fails on state the layout cannot carry.
	appendMutable(b []byte) ([]byte, error)
	// restore installs a state's mutable part, read from r, into a
	// predictor the restoring config just built, after refusing with
	// ErrStateMismatch a saved head that config does not build.
	restore(r *stateReader, head []byte, l *layout) error
	// next returns the first slot from i on of table t that holds an
	// entry, or the table's size when none does.
	next(t, i int) int
	// entry returns slot i of table t; its word's valid bit says
	// whether the slot holds an entry.
	entry(t, i int) entry
	// setEntry installs a decoded entry at slot i of table t, which
	// holds none.
	setEntry(t, i int, e entry)
	// changes is where the predictor keeps its delta mark: the slots
	// changed since, nil when it holds none (delta.go).
	changes() **changeSet
}

func sectionsOf(p NextTracePredictor) (sectioned, error) {
	s, ok := p.(sectioned)
	if !ok {
		return nil, fmt.Errorf("predictor: %T has no state codec", p)
	}
	return s, nil
}

// sameHead refuses a saved head other than want, the one the restoring
// config builds, so a restore never silently changes what a session
// predicts or how big its tables are.
func sameHead(saved, want []byte) error {
	if !bytes.Equal(saved, want) {
		return fmt.Errorf("%w: head saved %x vs config %x", ErrStateMismatch, saved, want)
	}
	return nil
}

// Append appends the state section of p, which this backend built, to
// dst and returns the extended slice. It sizes the tables before it
// writes them, so they grow dst at most once; a dst with room to spare
// is written without allocating. On error dst is returned as passed.
func (Backend) Append(b []byte, p NextTracePredictor) ([]byte, error) {
	s, err := sectionsOf(p)
	if err != nil {
		return b, err
	}
	dst := b
	if b, err = s.appendMutable(s.appendHead(b)); err != nil {
		return dst, err
	}
	l := s.layout()
	var counts [maxTables]int
	size := 4 * l.n
	for t := range l.n {
		for i := s.next(t, 0); i < l.tables[t].slots; i = s.next(t, i+1) {
			counts[t]++
		}
		size += counts[t] * l.tables[t].size
	}
	b = grow(b, size)
	for t := range l.n {
		b = appendUint(b, uint64(counts[t]), 4)
		for i := s.next(t, 0); i < l.tables[t].slots; i = s.next(t, i+1) {
			e := s.entry(t, i)
			b = l.tables[t].appendRecord(b, i, &e)
		}
	}
	return b, nil
}

// Save returns a predictor's state section in a new slice.
func (b Backend) Save(p NextTracePredictor) ([]byte, error) { return b.Append(nil, p) }

// Restore rebuilds a predictor from a state section. The predictor is
// built by New from cfg, whose geometry must match the saved head or
// the restore fails with ErrStateMismatch; cfg also supplies the
// process-local attachments: the Recorder, and a fault injector used
// only when the state carries none.
func (b Backend) Restore(state []byte, cfg Config) (NextTracePredictor, error) {
	l, err := b.head(state)
	if err != nil {
		return nil, err
	}
	np, err := b.New(cfg)
	if err != nil {
		return nil, err
	}
	p, err := sectionsOf(np)
	if err != nil {
		return nil, err
	}
	r := &stateReader{b: state, off: l.head}
	if err := p.restore(r, state[:l.head], &l); err != nil {
		return nil, err
	}
	for t := range l.n {
		tb := &l.tables[t]
		n, prev := r.count(tb.size), -1
		if r.err == nil && (n < tb.min || n > tb.max) {
			r.fail("table %d holds %d entries, outside [%d, %d]", t, n, tb.min, tb.max)
		}
		for range n {
			if i, e := r.record(tb, &prev); r.err == nil {
				p.setEntry(t, i, e)
			}
		}
	}
	if r.err == nil && r.off != len(state) {
		r.fail("%d trailing bytes after state", len(state)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
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

// idBytes is the saved width of an identifier of type T: its size.
func idBytes[T history.Ident]() uint8 { return uint8(bits.Len64(uint64(^T(0))) / 8) }

// appendLive appends stats, the history register, and the RHS when
// there is one: the mutable part but for a fault injector.
func appendLive[T history.Ident](b []byte, s Stats, hist *history.Path[T], rhs *history.Stack[T]) []byte {
	for _, v := range [...]uint64{s.Predictions, s.Correct, s.Cold, s.FromSecondary, s.AltCorrect, s.AltPresent} {
		b = appendUint(b, v, 8)
	}
	b = appendPath(b, hist.State())
	if rhs != nil {
		b = appendUint(appendUint(b, uint64(rhs.Max()), 2), uint64(rhs.Depth()), 2)
		for i := range rhs.Depth() {
			b = appendPath(b, rhs.Saved(i))
		}
	}
	return b
}

func appendPath[T history.Ident](b []byte, st history.PathState[T]) []byte {
	b = append(b, uint8(st.Size), uint8(st.N))
	for _, id := range st.IDs {
		b = appendUint(b, uint64(id), idBytes[T]())
	}
	return b
}

// faultFields lists an injector state's rates and, after its
// stuck-at-zero byte, its stream position and stats, in layout order.
func faultFields(f *faults.InjectorState) ([4]*float64, [11]*uint64) {
	c, st := &f.Config, &f.Stats
	return [4]*float64{&c.Table, &c.Secondary, &c.History, &c.TraceCache},
		[11]*uint64{&f.Fire, &f.Eff, &f.Ticks[0], &f.Ticks[1], &f.Ticks[2], &f.Ticks[3],
			&st.Opportunities, &st.TableFaults, &st.SecFaults, &st.HistoryFaults, &st.TCacheFaults}
}

// appendFaults appends a fault injector's plan and stream position. It
// fails on a plan whose bit count does not fit its byte.
func appendFaults(b []byte, fs *faults.InjectorState) ([]byte, error) {
	if bits := fs.Config.Bits; bits < 0 || bits > 0xFF {
		return b, fmt.Errorf("%w: fault bits %d does not fit u8", ErrBadState, bits)
	}
	b = appendUint(append(appendUint(b, fs.Config.Seed, 8), uint8(fs.Config.Bits)), fs.Config.Interval, 8)
	rates, tail := faultFields(fs)
	for _, rate := range rates {
		b = appendUint(b, math.Float64bits(*rate), 8)
	}
	var stuck uint8
	if fs.Config.StuckZero {
		stuck = 1
	}
	b = append(b, stuck)
	for _, v := range tail {
		b = appendUint(b, *v, 8)
	}
	return b, nil
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

// uint reads a w-byte little-endian integer, w one of 0, 1, 2, 4 or 8.
func (r *stateReader) uint(w uint8) uint64 { return leUint(r.take(int(w))) }

// leUint decodes b, of 0, 1, 2, 4 or 8 bytes, as a little-endian
// integer.
func leUint(b []byte) uint64 {
	le := binary.LittleEndian
	switch len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(le.Uint16(b))
	case 4:
		return uint64(le.Uint32(b))
	case 8:
		return le.Uint64(b)
	}
	return 0
}

// count reads a u32 record count and verifies the remaining input can
// hold that many records of the given size, bounding any loop derived
// from it by the input length.
func (r *stateReader) count(size int) int {
	n := int(r.uint(4))
	if rem := len(r.b) - r.off; r.err == nil && n > rem/size {
		r.fail("count %d needs %d bytes, %d remain", n, n*size, rem)
		return 0
	}
	return n
}

// record reads one record of table t and checks it: its slot above
// *prev and inside the table, every field within its limit. It sets
// *prev to the slot.
func (r *stateReader) record(t *table, prev *int) (i int, e entry) {
	b := r.take(t.size)
	if b == nil {
		return 0, e
	}
	var v [nFields]uint64
	i, b = int(leUint(b[:4])), b[4:]
	for f, w := range t.width {
		if v[f], b = leUint(b[:w]), b[w:]; v[f] > t.limit[f] {
			r.fail("entry %d field %d = %#x exceeds %#x", i, f, v[f], t.limit[f])
		}
	}
	e = entryOf(&v)
	switch {
	case r.err != nil:
	case i >= t.slots:
		r.fail("index %d outside a table of %d", i, t.slots)
	case i <= *prev:
		r.fail("indices not strictly ascending at %d", i)
	}
	*prev = i
	return i, e
}

// readPath reads one register and checks it.
func readPath[T history.Ident](r *stateReader) history.Path[T] {
	st := history.PathState[T]{Size: int(r.uint(1)), N: int(r.uint(1))}
	for i := range st.IDs {
		st.IDs[i] = T(r.uint(idBytes[T]()))
	}
	p, err := history.PathFromState(st)
	if err != nil && r.err == nil {
		r.fail("%v", err)
	}
	return p
}

// mutable is a decoded mutable part.
type mutable[T history.Ident] struct {
	stats  Stats
	hist   history.Path[T]
	rhs    *history.Stack[T] // built only when asked for
	faults *faults.Injector  // built only when asked for
}

// readMutable reads and checks the mutable part of a state of layout
// l. It builds the RHS and the fault injector only when build is set,
// so a delta merge checks one without allocating.
func readMutable[T history.Ident](r *stateReader, l *layout, build bool) (m mutable[T]) {
	s := &m.stats
	for _, v := range [...]*uint64{&s.Predictions, &s.Correct, &s.Cold, &s.FromSecondary, &s.AltCorrect, &s.AltPresent} {
		*v = r.uint(8)
	}
	if m.hist = readPath[T](r); r.err == nil && m.hist.Size() != l.depth+1 {
		r.fail("history size %d for depth %d", m.hist.Size(), l.depth)
	}
	if l.rhs > 0 {
		st := history.StackState[T]{Max: int(r.uint(2))}
		n := int(r.uint(2))
		if r.err == nil && (st.Max != l.rhs || n > st.Max) {
			r.fail("RHS of %d registers, capacity %d for %d", n, st.Max, l.rhs)
		}
		for i := 0; i < n && r.err == nil; i++ {
			if reg := readPath[T](r); build {
				st.Regs = append(st.Regs, reg.State())
			}
		}
		if build && r.err == nil {
			var err error
			if m.rhs, err = history.StackFromState(st); err != nil {
				r.fail("%v", err)
			}
		}
	}
	if l.faults {
		if fs := r.injector(); build && r.err == nil {
			m.faults = faults.FromState(fs)
		}
	}
	return m
}

// skipMutable checks the mutable part of a state of layout l without
// building anything.
func (r *stateReader) skipMutable(l *layout) {
	if l.full {
		readMutable[trace.ID](r, l, false)
	} else {
		readMutable[trace.HashedID](r, l, false)
	}
}

// injector reads a fault injector's plan and stream position.
func (r *stateReader) injector() faults.InjectorState {
	var f faults.InjectorState
	f.Config.Seed, f.Config.Bits, f.Config.Interval = r.uint(8), int(r.uint(1)), r.uint(8)
	rates, tail := faultFields(&f)
	for i, rate := range rates {
		if *rate = math.Float64frombits(r.uint(8)); math.IsNaN(*rate) || *rate < 0 || *rate > 1 {
			r.fail("fault rate %d = %v outside [0, 1]", i, *rate)
		}
	}
	switch stuck := r.uint(1); {
	case r.err != nil:
	case stuck == 1:
		f.Config.StuckZero = true
	case stuck != 0:
		r.fail("stuck-zero byte %d", stuck)
	}
	for _, v := range tail {
		*v = r.uint(8)
	}
	return f
}
