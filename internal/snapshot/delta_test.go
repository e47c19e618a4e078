package snapshot

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"pathtrace/internal/predictor"
	"pathtrace/internal/trace"
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
// every incremental backend, from a cold table to a warm one.
func TestHeldTracksFullFrame(t *testing.T) {
	for name, cfg := range codecConfigs() {
		b, _ := predictor.ResolveBackend(cfg)
		if !b.Incremental() {
			continue
		}
		t.Run(name, func(t *testing.T) {
			fx, frame := newDeltaFixture(t, cfg, 0)
			var h Held
			h.Set(frame)
			rng := rand.New(rand.NewSource(2))
			for step := 0; step < 40; step++ {
				fx.run(stream(int64(10+step), rng.Intn(200)))
				if err := h.Apply(fx.delta(t)); err != nil {
					t.Fatalf("step %d: Apply: %v", step, err)
				}
				if !bytes.Equal(h.Frame(), fx.full(t)) {
					t.Fatalf("step %d: held frame differs from the full frame", step)
				}
			}
		})
	}
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
