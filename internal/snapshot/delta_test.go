package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pathtrace/internal/history"
	"pathtrace/internal/predictor"
	tstream "pathtrace/internal/stream"
	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

// deltaFixture is a predictor with a full frame taken and a mark set:
// what a server holds after answering its first tracked snapshot.
type deltaFixture struct {
	b       predictor.Backend
	p       predictor.NextTracePredictor
	id      uint64
	lastSeq uint64
}

func newDeltaFixture(t testing.TB, cfg predictor.Config, warm int) (*deltaFixture, []byte) {
	t.Helper()
	b, err := predictor.ResolveBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fx := &deltaFixture{b: b, p: predictor.MustNew(cfg), id: 77}
	fx.run(stream(1, warm))
	frame := fx.full(t)
	if err := b.Mark(fx.p); err != nil {
		t.Fatal(err)
	}
	return fx, frame
}

func (fx *deltaFixture) run(traces []*trace.Trace) {
	for _, tc := range traces {
		fx.p.Predict()
		fx.p.Update(tc)
		fx.lastSeq++
	}
}

func (fx *deltaFixture) full(t testing.TB) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, fx.id, fx.lastSeq, fx.b.Name, func(b []byte) ([]byte, error) { return fx.b.Append(b, fx.p) })
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func (fx *deltaFixture) delta(t testing.TB) []byte {
	t.Helper()
	d, err := AppendDelta(nil, fx.id, fx.lastSeq, fx.b.Name, func(b []byte) ([]byte, error) { return fx.b.AppendDelta(b, fx.p) })
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestHeldTracksFullFrame: a Held frame fed one delta after every step
// equals, checksum included, the full frame of the same state — for
// every backend, from a cold table to a warm one. Where a grow drops
// the mark (unbounded), the holder takes a full frame, as a served
// client does, and deltas resume after it.
func TestHeldTracksFullFrame(t *testing.T) {
	for name, cfg := range codecConfigs() {
		t.Run(name, func(t *testing.T) {
			fx, frame := newDeltaFixture(t, cfg, 0)
			var h Held
			h.Set(frame)
			rng := rand.New(rand.NewSource(2))
			merged := 0
			for step := 0; step < 40; step++ {
				fx.run(stream(int64(10+step), rng.Intn(200)))
				d, err := AppendDelta(nil, fx.id, fx.lastSeq, fx.b.Name, func(b []byte) ([]byte, error) { return fx.b.AppendDelta(b, fx.p) })
				if errors.Is(err, predictor.ErrNoMark) {
					h.Set(fx.full(t))
					if err := fx.b.Mark(fx.p); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := h.Apply(d); err != nil {
					t.Fatalf("step %d: Apply: %v", step, err)
				}
				merged++
				if !bytes.Equal(h.Frame(), fx.full(t)) {
					t.Fatalf("step %d: held frame differs from the full frame", step)
				}
			}
			if merged < 30 {
				t.Errorf("%d of 40 steps merged a delta", merged)
			}
		})
	}
}

// TestApplyRefusesOtherTableSizes: an unbounded delta repeats its
// state's whole head, table sizes included, so one that claims sizes
// other than the held frame's is refused, and the frame stays as it
// was byte for byte.
func TestApplyRefusesOtherTableSizes(t *testing.T) {
	fx, frame := newUnboundedFixture(t)
	fx.run(stream(7, 100))
	good := fx.delta(t)
	for tbl := range 2 { // the correlated and secondary tables
		bad := resized(good, tbl)
		var h Held
		h.Set(frame)
		if err := h.Apply(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("table %d: Apply = %v, want ErrCorrupt", tbl, err)
		}
		if !bytes.Equal(h.Frame(), frame) {
			t.Errorf("table %d: a refused delta changed the held frame", tbl)
		}
	}
	var h Held
	h.Set(frame)
	if err := h.Apply(good); err != nil {
		t.Fatalf("the unaltered delta: %v", err)
	}
}

// newUnboundedFixture is a delta fixture of an unbounded predictor
// that keys every path by its last trace alone, warmed on the traces of
// streams 7 and 8, which the delta tests replay: its tables already
// hold every key those meet, so they do not grow and the mark holds.
func newUnboundedFixture(t testing.TB) (*deltaFixture, []byte) {
	fx, _ := newDeltaFixture(t, unboundedDeltaConfig, 0)
	fx.run(stream(7, 100))
	fx.run(stream(8, 150))
	frame := fx.full(t)
	if err := fx.b.Mark(fx.p); err != nil {
		t.Fatal(err)
	}
	return fx, frame
}

var unboundedDeltaConfig = predictor.Config{Backend: "unbounded", Depth: 0, Hybrid: true, UseRHS: true}

// resized returns a copy of an unbounded delta envelope whose head
// claims table tbl at twice its size, checksum fixed. The table sizes
// follow the 18-byte paper head (kind, flags, nine geometry bytes, u16
// RHS depth, five DOLC bytes).
func resized(delta []byte, tbl int) []byte {
	section := headerBytes + sessionHeaderBytes + 1 + len("unbounded") + 4
	return fixed(delta, func(d []byte) { d[section+18+tbl]++ })
}

// TestSpliceMatchesReference: the in-place splice equals building the
// spliced bytes anew, for random plans and free room in front of the
// frame that may or may not absorb the plan's growth.
func TestSpliceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 3000; iter++ {
		old := make([]byte, rng.Intn(200))
		rng.Read(old)
		var plan []predictor.Splice
		for off := 0; ; {
			off += rng.Intn(30)
			if off > len(old) {
				break
			}
			del := min(rng.Intn(6), len(old)-off)
			lit := make([]byte, rng.Intn(8))
			rng.Read(lit)
			plan = append(plan, predictor.Splice{Off: off, Del: del, Lit: lit})
			off += del
		}
		var want []byte
		prev := 0
		for _, s := range plan {
			want = append(want, old[prev:s.Off]...)
			want = append(want, s.Lit...)
			prev = s.Off + s.Del
		}
		want = append(want, old[prev:]...)

		front := rng.Intn(40)
		h := Held{buf: make([]byte, front+len(old)), off: front}
		copy(h.buf[front:], old)
		h.splice(plan)
		if got := h.buf[h.off:]; !bytes.Equal(got, want) {
			t.Fatalf("iter %d (room %d, %d splices): spliced %x, want %x", iter, front, len(plan), got, want)
		}
	}
}

// TestApplyRejectsLeaveFrame: a delta that is damaged, or taken for a
// different session, backend or base, is refused with a typed error
// and leaves the held frame byte for byte as it was.
func TestApplyRejectsLeaveFrame(t *testing.T) {
	cfg := codecConfigs()["hybrid"]
	fx, frame := newDeltaFixture(t, cfg, 500)
	fx.run(stream(5, 100))
	good := fx.delta(t)
	other, _ := newDeltaFixture(t, predictor.Config{Backend: "basic", Depth: 3, IndexBits: 10}, 50)
	other.id = fx.id

	const tagAt = headerBytes + sessionHeaderBytes
	cases := map[string]struct {
		delta []byte
		want  error
	}{
		"empty":    {nil, ErrTruncated},
		"full":     {frame, ErrMagic},
		"torn":     {good[:len(good)/2], ErrChecksum},
		"bit flip": {flip(good, 40), ErrChecksum},
		"version":  {fixed(good, func(d []byte) { d[4] = 9 }), ErrVersion},
		"session":  {fixed(good, func(d []byte) { d[5] ^= 1 }), ErrCorrupt},
		"tag len":  {fixed(good, func(d []byte) { d[tagAt] = 0xFF }), ErrCorrupt},
		"length":   {fixed(good, func(d []byte) { d[tagAt+1+len("hybrid")] ^= 1 }), ErrCorrupt},
		"backend":  {other.delta(t), ErrCorrupt},
		"section":  {fixed(good, func(d []byte) { d[tagAt+1+len("hybrid")+4] = 1 }), ErrCorrupt},
	}
	for name, c := range cases {
		var h Held
		h.Set(frame)
		before := bytes.Clone(h.buf[h.off:])
		if err := h.Apply(c.delta); !errors.Is(err, c.want) {
			t.Errorf("%s: Apply = %v, want %v", name, err, c.want)
		}
		if !bytes.Equal(h.buf[h.off:], before) || !h.sealed {
			t.Errorf("%s: a rejected delta changed the held frame", name)
		}
	}
}

// TestHeldAcrossRejectedDeltas: one Held fed good deltas with rejected
// ones in between still equals the full frame after every step. A
// rejected delta changes neither the frame nor the index that places
// the next good delta's entries.
func TestHeldAcrossRejectedDeltas(t *testing.T) {
	fx, frame := newDeltaFixture(t, codecConfigs()["hybrid"], 300)
	var h Held
	h.Set(frame)
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 30; step++ {
		fx.run(stream(int64(40+step), 1+rng.Intn(150)))
		good := fx.delta(t)
		if step%2 == 1 {
			before := bytes.Clone(h.buf[h.off:])
			// Every round writes a secondary entry, so the delta's last
			// byte is its last secondary entry's counter: it fails only
			// after all its other entries passed.
			bad := fixed(good, func(d []byte) { d[len(d)-checksumBytes-1] = 0xFF })
			if err := h.Apply(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("step %d: bad delta: Apply = %v, want ErrCorrupt", step, err)
			}
			if !bytes.Equal(h.buf[h.off:], before) {
				t.Fatalf("step %d: a rejected delta changed the held frame", step)
			}
		}
		if err := h.Apply(good); err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		if !bytes.Equal(h.Frame(), fx.full(t)) {
			t.Fatalf("step %d: held frame differs from the full frame", step)
		}
	}
}

// TestHeldSetResetsIndex: a Set after some Applys drops the index built
// for the old frame, so the new frame's deltas merge exactly.
func TestHeldSetResetsIndex(t *testing.T) {
	cfg := codecConfigs()["hybrid"]
	a, frameA := newDeltaFixture(t, cfg, 600)
	b, frameB := newDeltaFixture(t, cfg, 40)
	var h Held
	h.Set(frameA)
	for step := 0; step < 3; step++ {
		a.run(stream(int64(60+step), 100))
		if err := h.Apply(a.delta(t)); err != nil {
			t.Fatalf("frame A, step %d: Apply: %v", step, err)
		}
	}
	h.Set(frameB)
	for step := 0; step < 5; step++ {
		b.run(stream(int64(70+step), 100))
		if err := h.Apply(b.delta(t)); err != nil {
			t.Fatalf("frame B, step %d: Apply: %v", step, err)
		}
		if !bytes.Equal(h.Frame(), b.full(t)) {
			t.Fatalf("frame B, step %d: held frame differs from the full frame", step)
		}
	}
}

// TestApplyRefusesOversizedGeometry: a held frame whose state claims
// tables larger than any Config builds (here 2^27 correlated slots) is
// refused with ErrCorrupt before the merge sizes its index, and stays
// as it was.
func TestApplyRefusesOversizedGeometry(t *testing.T) {
	fx, frame := newDeltaFixture(t, codecConfigs()["hybrid"], 200)
	fx.run(stream(9, 50))
	delta := fx.delta(t)
	s, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	s.State[3] = 27 // kind, flags, depth, then the index bits
	big, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	var h Held
	h.Set(big)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = h.Apply(delta)
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Apply = %v, want ErrCorrupt", err)
	}
	if !bytes.Equal(h.Frame(), big) {
		t.Fatal("a refused delta changed the held frame")
	}
	if n := m1.TotalAlloc - m0.TotalAlloc; n > 64<<10 {
		t.Fatalf("refusing the frame allocated %d bytes", n)
	}
}

func flip(b []byte, i int) []byte {
	b = bytes.Clone(b)
	b[i] ^= 0x10
	return b
}

// fixed returns a copy of a delta envelope patched by f, checksum fixed.
func fixed(b []byte, f func([]byte)) []byte {
	b = bytes.Clone(b)
	f(b)
	fixCRC(b)
	return b
}

// TestSpliceKeepsEnd: a resizing splice near the front (the RHS part of
// a state growing or shrinking) or near the end moves only the bytes in
// front of it: the frame's tail stays where it is.
func TestSpliceKeepsEnd(t *testing.T) {
	frame := bytes.Repeat([]byte{1, 2, 3, 4}, 1000)
	for _, growth := range []int{-7, 9} {
		for _, off := range []int{40, len(frame) - 50} {
			var h Held
			h.Set(frame)
			tail := &h.buf[len(h.buf)-1]
			h.splice([]predictor.Splice{{Off: off, Del: 10, Lit: make([]byte, 10+growth)}})
			if &h.buf[len(h.buf)-1] != tail || h.Len() != len(frame)+growth {
				t.Errorf("growth %d at offset %d moved the tail or sized the frame %d", growth, off, h.Len())
			}
		}
	}
}

// heldApplyFixture is BenchmarkHeldApply's input, built once: a full
// frame and the deltas a server ships after it, one per batch.
var heldApplyFixture struct {
	once    sync.Once
	frame   []byte
	deltas  [][]byte
	records float64 // entries per delta, deltas[1:] averaged
	err     error
}

// heldApplyBatch is the durable workload's batch size.
const heldApplyBatch = 256

// buildHeldApplyFixture runs the go benchmark's 2M-instruction stream
// twice through the headline predictor (hybrid+RHS, 2^16 correlated
// entries) in batches, takes the full frame and marks it, then runs
// the stream a third time, taking the delta of every batch.
func buildHeldApplyFixture() {
	fx := &heldApplyFixture
	w, ok := workload.ByName("go")
	if !ok {
		fx.err = errors.New("workload go missing")
		return
	}
	s, err := tstream.Capture(nil, w, 2_000_000, trace.DefaultConfig())
	if err != nil {
		fx.err = err
		return
	}
	traces := make([]trace.Trace, s.Len())
	for i := range traces {
		s.At(i, &traces[i])
	}
	cfg := predictor.Config{Backend: "hybrid", Depth: 7, IndexBits: 16, UseRHS: true}
	b, err := predictor.ResolveBackend(cfg)
	if err != nil {
		fx.err = err
		return
	}
	p := predictor.MustNew(cfg)
	pass := func(f func(lastSeq uint64) error) error {
		for off := 0; off+heldApplyBatch <= len(traces); off += heldApplyBatch {
			predictor.PredictBatch(p, traces[off:off+heldApplyBatch], nil)
			if err := f(uint64(off + heldApplyBatch)); err != nil {
				return err
			}
		}
		return nil
	}
	none := func(uint64) error { return nil }
	if err := errors.Join(pass(none), pass(none)); err != nil {
		fx.err = err
		return
	}
	fx.frame, err = AppendFrame(nil, 1, 0, b.Name, func(dst []byte) ([]byte, error) { return b.Append(dst, p) })
	if err == nil {
		err = b.Mark(p)
	}
	if err == nil {
		err = pass(func(lastSeq uint64) error {
			d, err := AppendDelta(nil, 1, lastSeq, b.Name, func(dst []byte) ([]byte, error) { return b.AppendDelta(dst, p) })
			fx.deltas = append(fx.deltas, d)
			return err
		})
	}
	if err != nil {
		fx.err = err
		return
	}
	for _, d := range fx.deltas[1:] {
		fx.records += float64(hybridDeltaRecords(d))
	}
	fx.records /= float64(len(fx.deltas) - 1)
}

// hybridDeltaRecords counts the entries of a hybrid+RHS delta envelope
// (papercodec.go): after the section's length word, two key bytes, the
// mutable part (six u64 stats, the register, the RHS's capacity, count
// and registers, each register two bytes and history.MaxSize u16 ids),
// then the correlated table's count and 24-byte records and the
// secondary table's count.
func hybridDeltaRecords(d []byte) int {
	le := binary.LittleEndian
	const reg = 2 + 2*history.MaxSize
	off := headerBytes + sessionHeaderBytes + 1 + len("hybrid") + 4 + 2 + 6*8 + reg
	off += 4 + reg*int(le.Uint16(d[off+2:]))
	corr := int(le.Uint32(d[off:]))
	return corr + int(le.Uint32(d[off+4+24*corr:]))
}

// BenchmarkHeldApply times the client's half of a durable ack: one
// Held.Apply of the delta a server ships after a 256-trace batch, on
// the headline predictor learning the go benchmark (see
// buildHeldApplyFixture), the deltas applied in the order they were
// taken. The first delta after the base frame, which also builds the
// frame's index, is applied untimed, and so is every return to the base
// frame once the deltas run out. It reports ns/trace and the entries a
// delta carries (records/ack).
func BenchmarkHeldApply(b *testing.B) {
	fx := &heldApplyFixture
	fx.once.Do(buildHeldApplyFixture)
	if fx.err != nil {
		b.Fatal(fx.err)
	}
	var h Held
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		k := 1 + i%(len(fx.deltas)-1)
		if k == 1 {
			b.StopTimer()
			h.Set(fx.frame)
			if err := h.Apply(fx.deltas[0]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := h.Apply(fx.deltas[k]); err != nil {
			b.Fatalf("delta %d: %v", k, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*heldApplyBatch), "ns/trace")
	b.ReportMetric(fx.records, "records/ack")
}
