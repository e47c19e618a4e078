package snapshot

import (
	"bytes"
	"encoding/binary"
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
