package stream

import (
	"bytes"
	"errors"
	"testing"

	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

// FuzzDecode hardens the .ntps decoder against untrusted bytes: now
// that streams cross machines (the serving loadgen ships them, CI
// commits them), Decode must never panic, hang, or over-allocate on
// hostile input — it either returns a structurally valid stream or an
// error.
//
// Seeded with a freshly encoded real capture (so the fuzzer starts
// from deep inside the valid format, not from garbage) plus a few
// structural corner cases.
//
// Run with -fuzzminimizetime 5x (as CI does): coverage-keeping
// mutations of a structured seed otherwise trigger the engine's
// default 60-second minimization per interesting input, collapsing
// throughput to single-digit execs/sec.
func FuzzDecode(f *testing.F) {
	w, ok := workload.ByName("compress")
	if !ok {
		f.Fatal("unknown workload compress")
	}
	// A small limit keeps the seed a few KB: the fuzz engine's per-exec
	// cost scales with corpus entry size, and format coverage does not
	// need many records.
	s, err := Capture(nil, w, 2_000, trace.DefaultConfig())
	if err != nil {
		f.Fatalf("Capture: %v", err)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		f.Fatalf("Encode: %v", err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-4])             // checksum missing
	f.Add(good[:len(good)/2])             // truncated body
	f.Add([]byte(diskMagic))              // header missing
	f.Add([]byte{})                       // empty
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // wrong magic, huge counts

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error is not ErrCorrupt: %v", err)
			}
			return
		}
		// A successfully decoded stream must be internally consistent:
		// every record materialises without slicing out of range, with
		// an identifier that fits its lane and the hash the server
		// derives from it, and a re-encode must decode to the same
		// stream (the format is canonical).
		var tr trace.Trace
		for i := 0; i < decoded.Len(); i++ {
			decoded.At(i, &tr)
			if tr.ID>>trace.IDBits != 0 || tr.Hash != tr.ID.Hash() {
				t.Fatalf("record %d decoded with id %#x and hash %#x", i, uint64(tr.ID), tr.Hash)
			}
		}
		var re bytes.Buffer
		if err := decoded.Encode(&re); err != nil {
			t.Fatalf("re-Encode of decoded stream: %v", err)
		}
		if _, err := Decode(bytes.NewReader(re.Bytes())); err != nil {
			t.Fatalf("decode of re-encode failed: %v", err)
		}
	})
}
