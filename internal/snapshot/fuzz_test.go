package snapshot

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"pathtrace/internal/faults"
	"pathtrace/internal/predictor"
)

// FuzzSnapshotDecode drives the decoder with arbitrary bytes: it must
// never panic, never allocate unboundedly, and anything it accepts must
// re-encode to a frame that decodes to the same session (the decoder
// and encoder agree on the format). Seeds cover every snapshottable
// backend, plus a frame with non-zero reserved header bytes.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("NTSS"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	var reserved []byte
	for name, cfg := range codecConfigs() {
		b, err := predictor.ResolveBackend(cfg)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		p, err := b.New(cfg)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		for _, tc := range stream(7, 500) {
			p.Predict()
			p.Update(tc)
		}
		state, err := b.Save(p)
		if err != nil {
			f.Fatalf("%s: Save: %v", name, err)
		}
		frame, err := Encode(&Session{ID: 42, LastSeq: 7, Backend: b.Name, State: state})
		if err != nil {
			f.Fatalf("%s: Encode: %v", name, err)
		}
		f.Add(frame)
		f.Add(faults.FlipBits(frame, 1, 4))
		f.Add(faults.Truncate(frame, 2))
		if name == "hybrid" {
			reserved = append([]byte(nil), frame...)
		}
	}
	// The 8 bytes after LastSeq hold whatever an older encoder put there.
	binary.LittleEndian.PutUint64(reserved[5+16:], 0x0000001a_0000001b)
	fixCRC(reserved)
	f.Add(reserved)

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(b)
		if err != nil {
			if s != nil {
				t.Fatal("Decode returned both a session and an error")
			}
			return
		}
		re, err := Encode(s)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		re2, err := Encode(s2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// FuzzSnapshotDelta applies hostile delta envelopes to a valid held
// frame that one good delta has already been merged into, so they meet
// the index that merge built and kept. Apply must never panic and must
// allocate no more than O(frame + delta); a rejected delta must leave
// the held frame unchanged byte for byte, and an accepted one must
// leave a frame that decodes and restores. When the first input byte
// is odd the envelope checksum is fixed up first, so mutations reach
// the envelope fields and the backend's merge instead of stopping at
// the checksum.
func FuzzSnapshotDelta(f *testing.F) {
	cfg := predictor.Config{Backend: "hybrid", Depth: 7, IndexBits: 10, UseRHS: true}
	fx, frame := newDeltaFixture(f, cfg, 400)
	fx.run(stream(7, 100))
	first := fx.delta(f)
	fx.run(stream(8, 150))
	delta := fx.delta(f)
	for _, seed := range [][]byte{delta, faults.FlipBits(delta, 2, 3), faults.Truncate(delta, 2), fx.delta(f), nil} {
		f.Add(append([]byte{0}, seed...))
		f.Add(append([]byte{1}, seed...))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		d := in[1:]
		if in[0]&1 != 0 && len(d) >= checksumBytes {
			d = bytes.Clone(d)
			fixCRC(d)
		}
		var h Held
		h.Set(frame)
		if err := h.Apply(first); err != nil {
			t.Fatalf("first delta: %v", err)
		}
		before := bytes.Clone(h.Frame())
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := h.Apply(d)
		runtime.ReadMemStats(&m1)
		if n, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(4*(len(frame)+len(d))+64<<10); n > limit {
			t.Fatalf("Apply allocated %d bytes for a %d-byte frame and a %d-byte delta", n, len(frame), len(d))
		}
		if err != nil {
			if !bytes.Equal(h.buf[h.off:], before) || !h.sealed {
				t.Fatalf("rejected delta (%v) changed the held frame", err)
			}
			return
		}
		s, err := Decode(h.Frame())
		if err != nil {
			t.Fatalf("accepted delta left an undecodable frame: %v", err)
		}
		b, _ := predictor.BackendByName(s.Backend)
		if _, err := b.Restore(s.State, cfg); err != nil {
			t.Fatalf("accepted delta left an unrestorable state: %v", err)
		}
	})
}
