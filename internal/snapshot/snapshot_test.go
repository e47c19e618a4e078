package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"pathtrace/internal/faults"
	"pathtrace/internal/predictor"
	"pathtrace/internal/trace"
)

// stream generates a deterministic pseudo-random trace stream with
// calls and returns.
func stream(seed int64, n int) []*trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trace.Trace, n)
	for i := range out {
		id := trace.MakeID(0x1000+uint32(rng.Intn(256))*4, uint8(rng.Intn(64)))
		t := &trace.Trace{ID: id, Hash: id.Hash(), StartPC: 0x1000}
		t.Calls = rng.Intn(3)
		t.EndsInRet = rng.Intn(4) == 0
		out[i] = t
	}
	return out
}

// codecConfigs maps each snapshottable backend to a round-trip config
// (keyed by backend name; "faulty" exercises the paper codec's fault
// block through the hybrid backend).
func codecConfigs() map[string]predictor.Config {
	return map[string]predictor.Config{
		"basic":       {Backend: "basic", Depth: 3, IndexBits: 10},
		"hybrid":      {Backend: "hybrid", Depth: 7, IndexBits: 12, UseRHS: true},
		"costreduced": {Backend: "costreduced", Depth: 5, IndexBits: 10, UseRHS: true},
		"tage":        {Backend: "tage", Depth: 7, IndexBits: 10},
		"faulty": {Backend: "hybrid", Depth: 7, IndexBits: 10, UseRHS: true,
			Faults: faults.New(faults.Config{Seed: 9, Table: 0.02, History: 0.02, Bits: 2})},
	}
}

// warmSession trains a predictor under cfg, saves it through its
// backend's codec hooks, and wraps the state in a Session with
// non-trivial bookkeeping.
func warmSession(t *testing.T, cfg predictor.Config, rounds int) (*Session, predictor.Backend) {
	t.Helper()
	b, err := predictor.ResolveBackend(cfg)
	if err != nil {
		t.Fatalf("ResolveBackend: %v", err)
	}
	p, err := b.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, tc := range stream(3, rounds) {
		p.Predict()
		p.Update(tc)
	}
	state, err := b.Save(p)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	return &Session{
		ID:      0xDEADBEEFCAFE,
		LastSeq: 12345,
		Backend: b.Name,
		State:   state,
	}, b
}

// TestEncodeDecodeRoundTripAllBackends runs the full
// Save → Snapshot → Restore round trip for every snapshottable backend
// in the registry: the frame must decode to an identical session, and
// the restored predictor must resume bit-identically with the
// original. New backends fail the test until they get a config entry.
func TestEncodeDecodeRoundTripAllBackends(t *testing.T) {
	configs := codecConfigs()
	for _, b := range predictor.Backends() {
		if !b.Snapshottable() {
			continue
		}
		cfg, ok := configs[b.Name]
		if !ok {
			t.Errorf("no codec config for newly registered backend %q — add one", b.Name)
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			s, backend := warmSession(t, cfg, 2000)
			frame, err := Encode(s)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if len(frame) > MaxEncoded {
				t.Fatalf("frame %d bytes > MaxEncoded %d", len(frame), MaxEncoded)
			}
			got, err := Decode(frame)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(got, s) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
			}
			if _, err := backend.Restore(got.State, cfg); err != nil {
				t.Fatalf("Restore of decoded state: %v", err)
			}
		})
	}
}

// The decoded state must actually restore: end-to-end, a session that
// crossed the codec continues bit-identically with the original.
func TestDecodedSessionResumesBitIdentical(t *testing.T) {
	cfg := predictor.Config{Backend: "hybrid", Depth: 7, IndexBits: 12, UseRHS: true}
	warm, tail := stream(3, 2000), stream(5, 1000)

	b, _ := predictor.BackendByName("hybrid")
	orig, err := b.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range warm {
		orig.Predict()
		orig.Update(tc)
	}
	state, err := b.Save(orig)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	frame, err := Encode(&Session{ID: 1, Backend: "hybrid", State: state})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	tagged, ok := predictor.BackendByName(dec.Backend)
	if !ok {
		t.Fatalf("decoded backend %q not registered", dec.Backend)
	}
	resumed, err := tagged.Restore(dec.State, cfg)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i, tc := range tail {
		if a, b := orig.Predict(), resumed.Predict(); a != b {
			t.Fatalf("round %d: original %+v, resumed %+v", i, a, b)
		}
		orig.Update(tc)
		resumed.Update(tc)
	}
	if a, b := orig.Stats(), resumed.Stats(); a != b {
		t.Fatalf("stats diverged: original %+v, resumed %+v", a, b)
	}
}

// TestDecodeIgnoresReservedHeaderBytes: the 8 bytes after LastSeq are
// reserved. Encode writes them as zero, but frames already on disk may
// carry anything there (earlier encoders stored a cached update answer
// in them), so Decode must ignore them and the session must still
// restore and resume bit-identically.
func TestDecodeIgnoresReservedHeaderBytes(t *testing.T) {
	cfg := predictor.Config{Backend: "hybrid", Depth: 7, IndexBits: 12, UseRHS: true}
	b, _ := predictor.BackendByName("hybrid")
	orig, err := b.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range stream(11, 1500) {
		orig.Predict()
		orig.Update(tc)
	}
	state, err := b.Save(orig)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	want := &Session{ID: 0xABCD, LastSeq: 99, Backend: "hybrid", State: state}
	frame, err := Encode(want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	const reservedOff = 5 + 16 // magic(4) ver(1) ID(8) LastSeq(8)
	if !bytes.Equal(frame[reservedOff:reservedOff+8], make([]byte, 8)) {
		t.Fatalf("Encode wrote non-zero reserved bytes % x", frame[reservedOff:reservedOff+8])
	}
	binary.LittleEndian.PutUint32(frame[reservedOff:], 12)
	binary.LittleEndian.PutUint32(frame[reservedOff+4:], 7)
	fixCRC(frame)

	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode with non-zero reserved bytes: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	resumed, err := b.Restore(got.State, cfg)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i, tc := range stream(13, 500) {
		if a, b := orig.Predict(), resumed.Predict(); a != b {
			t.Fatalf("round %d: original %+v, resumed %+v", i, a, b)
		}
		orig.Update(tc)
		resumed.Update(tc)
	}
}

// fixCRC recomputes the trailing checksum after a deliberate patch, so
// structural validation is exercised rather than the checksum.
func fixCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
}

func validFrame(t *testing.T) []byte {
	t.Helper()
	s, _ := warmSession(t, predictor.Config{Backend: "hybrid", Depth: 4, IndexBits: 10, UseRHS: true}, 1000)
	b, err := Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b
}

func TestDecodeTypedErrors(t *testing.T) {
	frame := validFrame(t)
	// v2 layout: magic(4) ver(1) header(24) nameLen(1) name stateLen(4).
	const nameOff = 5 + sessionHeaderBytes
	nameLen := int(frame[nameOff])
	stateLenOff := nameOff + 1 + nameLen

	cases := map[string]struct {
		mutate func([]byte) []byte
		want   error
	}{
		"empty":     {func(b []byte) []byte { return nil }, ErrTruncated},
		"tiny":      {func(b []byte) []byte { return b[:5] }, ErrTruncated},
		"magic":     {func(b []byte) []byte { b[0] ^= 0xFF; fixCRC(b); return b }, ErrMagic},
		"version":   {func(b []byte) []byte { b[4] = 99; fixCRC(b); return b }, ErrVersion},
		"v1":        {func(b []byte) []byte { b[4] = 1; fixCRC(b); return b }, ErrVersion}, // no backend tag; not decoded
		"bitflip":   {func(b []byte) []byte { b[20] ^= 0x10; return b }, ErrChecksum},
		"short-crc": {func(b []byte) []byte { return b[:len(b)-1] }, ErrChecksum},
		"trailing": {func(b []byte) []byte {
			b = append(b[:len(b)-4], 0xAB)
			b = binary.LittleEndian.AppendUint32(b, 0)
			fixCRC(b)
			return b
		}, ErrCorrupt},
		// The corrupt-backend-tag case: a checksum-valid frame whose tag
		// names no registered backend must be refused outright.
		"badtag": {func(b []byte) []byte {
			b[nameOff+1] ^= 0xFF
			fixCRC(b)
			return b
		}, ErrCorrupt},
		"zerotag": {func(b []byte) []byte { b[nameOff] = 0; fixCRC(b); return b }, ErrCorrupt},
		"statelen": {func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[stateLenOff:], 0xFFFFFFFF)
			fixCRC(b)
			return b
		}, ErrCorrupt},
	}
	for name, tc := range cases {
		b := tc.mutate(append([]byte(nil), frame...))
		if _, err := Decode(b); !errors.Is(err, tc.want) {
			t.Errorf("%s: Decode = %v, want %v", name, err, tc.want)
		}
	}
}

// A frame tagged with a registered but non-snapshottable backend is as
// unrestorable as an unknown one; both Encode and Decode refuse it.
func TestRejectsNonSnapshottableBackendTag(t *testing.T) {
	if _, err := Encode(&Session{ID: 1, Backend: "unbounded", State: []byte{1}}); err == nil {
		t.Error("Encode accepted a non-snapshottable backend")
	}
	// Hand-build the frame Encode refused to make.
	b := append([]byte(nil), 'N', 'T', 'S', 'S', Version)
	le := binary.LittleEndian
	b = le.AppendUint64(b, 1)
	b = le.AppendUint64(b, 0)
	b = le.AppendUint32(b, 0)
	b = le.AppendUint32(b, 0)
	b = append(b, uint8(len("unbounded")))
	b = append(b, "unbounded"...)
	b = le.AppendUint32(b, 1)
	b = append(b, 0xAA)
	b = le.AppendUint32(b, crc32.ChecksumIEEE(b))
	if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Decode = %v, want ErrCorrupt", err)
	}
}

// Wire-fault injectors model the failure modes checkpoints actually
// face; every corruption must be detected, never silently decoded.
func TestDecodeRejectsInjectedCorruption(t *testing.T) {
	frame := validFrame(t)
	for seed := uint64(1); seed <= 50; seed++ {
		if _, err := Decode(faults.FlipBits(frame, seed, 3)); err == nil {
			t.Fatalf("seed %d: bit-flipped frame decoded successfully", seed)
		}
		if _, err := Decode(faults.Truncate(frame, seed)); err == nil {
			t.Fatalf("seed %d: truncated frame decoded successfully", seed)
		}
	}
}

func TestEncodeRejectsInvalidSessions(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
	if _, err := Encode(&Session{ID: 1, Backend: "hybrid"}); err == nil {
		t.Error("Encode with empty state succeeded")
	}
	if _, err := Encode(&Session{ID: 1, State: []byte{1}}); err == nil {
		t.Error("Encode with empty backend tag succeeded")
	}
	if _, err := Encode(&Session{ID: 1, Backend: "nope", State: []byte{1}}); err == nil {
		t.Error("Encode with unregistered backend succeeded")
	}
	if _, err := Encode(&Session{ID: 1, Backend: string(bytes.Repeat([]byte{'x'}, 300)), State: []byte{1}}); err == nil {
		t.Error("Encode with oversized backend tag succeeded")
	}
}
