package predictor

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"pathtrace/internal/faults"
	"pathtrace/internal/trace"
)

// randStream generates a deterministic pseudo-random trace stream with
// calls and returns, exercising the history register, the RHS and both
// tables.
func randStream(seed int64, n int) []*trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trace.Trace, n)
	for i := range out {
		t := tr(0x1000+uint32(rng.Intn(256))*4, uint8(rng.Intn(64)))
		t.Calls = rng.Intn(3)
		t.EndsInRet = rng.Intn(4) == 0
		out[i] = t
	}
	return out
}

// mustBackend resolves cfg's backend or fails the test.
func mustBackend(t testing.TB, cfg Config) Backend {
	t.Helper()
	b, err := ResolveBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkSaveRestore warms a predictor, saves it mid-stream through its
// backend's hooks, restores it under restoreCfg, and asserts the
// original and the restored copy stay bit-identical — same Prediction
// every round, same Stats, same saved bytes — over a fresh tail of the
// stream.
func checkSaveRestore(t *testing.T, buildCfg, restoreCfg Config) {
	t.Helper()
	b := mustBackend(t, buildCfg)
	orig := MustNew(buildCfg)
	for _, tc := range randStream(11, 4000) {
		orig.Predict()
		orig.Update(tc)
	}
	state, err := b.Save(orig)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := b.Restore(state, restoreCfg)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := restored.Stats(), orig.Stats(); got != want {
		t.Fatalf("restored stats %+v != original %+v", got, want)
	}
	for i, tc := range randStream(13, 2000) {
		a, b := orig.Predict(), restored.Predict()
		if a != b {
			t.Fatalf("round %d: original predicted %+v, restored %+v", i, a, b)
		}
		orig.Update(tc)
		restored.Update(tc)
	}
	if got, want := restored.Stats(), orig.Stats(); got != want {
		t.Fatalf("after tail: restored stats %+v != original %+v", got, want)
	}
	s1, _ := b.Save(orig)
	s2, _ := b.Save(restored)
	if !bytes.Equal(s1, s2) {
		t.Fatal("states diverged after resumed rounds")
	}
}

// TestSaveRestoreBitIdentical round-trips the paper configurations as
// the legacy Hybrid/CostReduced flags select them, covering the RHS and
// no-RHS variants the per-backend round trip leaves out.
func TestSaveRestoreBitIdentical(t *testing.T) {
	cases := map[string]Config{
		"basic":       {Depth: 3, IndexBits: 12},
		"hybrid":      {Depth: 7, IndexBits: 12, Hybrid: true, UseRHS: true},
		"hybridNoRHS": {Depth: 5, IndexBits: 12, Hybrid: true},
		"costReduced": {Depth: 7, IndexBits: 12, Hybrid: true, UseRHS: true, CostReduced: true},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) { checkSaveRestore(t, cfg, cfg) })
	}
}

// TestPaperStateBytesPinned pins the paper state format byte for byte.
// Each config is warmed on a seeded stream and saved; the SHA-256 of
// its state section must match the constant. The constants were
// computed with the previous encoder, which serialized an intermediate
// copy of the tables; the direct encoder that replaced it must write
// the same bytes, so checkpoints, drain spills and restore frames
// written before the rewrite still restore. A failure here means the
// format moved: never update a constant to make it pass.
func TestPaperStateBytesPinned(t *testing.T) {
	// basicFaults injects table and history faults into a basic table,
	// which has no tags and no secondary: a fault can flip the alternate
	// word of an entry that is not yet valid, and a fresh basic entry
	// keeps that word, so these states pin what a fresh entry inherits.
	basicFaults := func(stuck bool) *faults.Injector {
		return faults.New(faults.Config{Seed: 9, Table: 0.05, History: 0.01, Bits: 2, StuckZero: stuck})
	}
	cases := []struct {
		name     string
		workload string        // captured workload stream; empty runs randStream(21, 3000)
		cfg      func() Config // fresh per run: injectors are stateful
		sha      string
	}{
		{"basic", "", func() Config { return Config{Backend: "basic", Depth: 3, IndexBits: 10} },
			"f1c78c96cd347a76437b7cd4016792547a01b440822aa4c8e390677e5587ede5"},
		{"hybrid+rhs", "", func() Config { return Config{Backend: "hybrid", Depth: 7, IndexBits: 10, UseRHS: true} },
			"bc40f7abf3ce470744bfe731031b4f0d8f722a034e5101263f3fc1a070bc13a1"},
		{"hybrid-nofilter", "", func() Config {
			return Config{Backend: "hybrid", Depth: 5, IndexBits: 10, SecondaryFilter: NoFilter()}
		}, "0b61a483e075fc9a3d8d9bb73a2ae4d158ade85360518b0b395707fd284dfb44"},
		{"costreduced+rhs", "", func() Config { return Config{Backend: "costreduced", Depth: 7, IndexBits: 10, UseRHS: true} },
			"5759fa1211a6f615135354e045ddeaac0f38f1a794f82dc1c2d286d8e531e04d"},
		{"hybrid+rhs+faults", "", func() Config {
			return Config{Backend: "hybrid", Depth: 7, IndexBits: 10, UseRHS: true,
				Faults: faults.New(faults.Config{Seed: 7, Table: 0.02, Secondary: 0.02, History: 0.02, Bits: 2})}
		}, "4b23687d7d90c6cb9575b7fcf31a5cf2feba5369addb38fd93c8b66020578078"},
		{"basic+faults/gcc", "gcc", func() Config {
			return Config{Backend: "basic", Depth: 5, IndexBits: 10, Faults: basicFaults(false)}
		}, "05d085274368a1485654229f8a3e326d38c7e0e02c5fa7e16259e17aae0aa8c7"},
		{"basic+faults/go", "go", func() Config {
			return Config{Backend: "basic", Depth: 5, IndexBits: 10, Faults: basicFaults(false)}
		}, "6b78d66d6687cc66497a6d08dae198b0dfc8586f5a4b4b8a127b45a8a95bd0b6"},
		{"basic-costreduced+stuckzero/compress", "compress", func() Config {
			return Config{Backend: "basic", Depth: 3, IndexBits: 10, CostReduced: true, Faults: basicFaults(true)}
		}, "3ec31b48ea79da9d4da72808507cffb234e2e6eaa912a751e5459e25a69d9b44"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg()
			b := mustBackend(t, cfg)
			p := MustNew(cfg)
			stream := randStream(21, 3000)
			if c.workload != "" {
				captured := captureTraces(t, c.workload, 100_000)
				stream = stream[:0]
				for i := range captured {
					stream = append(stream, &captured[i])
				}
			}
			for _, tc := range stream {
				p.Predict()
				p.Update(tc)
			}
			state, err := b.Save(p)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(state)
			if got := hex.EncodeToString(sum[:]); got != c.sha {
				t.Fatalf("state section (%d bytes) hashes to %s, pinned %s", len(state), got, c.sha)
			}
		})
	}
}

// A fault-injected session must resume the exact fault sequence: the
// saved state carries the injector's PRNG positions, so the restore
// side needs no injector of its own.
func TestSaveRestoreResumesFaultStream(t *testing.T) {
	buildCfg := Config{
		Depth: 7, IndexBits: 12, Hybrid: true, UseRHS: true,
		Faults: faults.New(faults.Config{Seed: 7, Table: 0.02, Secondary: 0.02, History: 0.02, Bits: 2}),
	}
	restoreCfg := buildCfg
	restoreCfg.Faults = nil
	checkSaveRestore(t, buildCfg, restoreCfg)
}

func TestSaveUnboundedNotSnapshottable(t *testing.T) {
	p := mustUnbounded(t, Config{Depth: 5, Hybrid: true, UseRHS: true})
	if _, err := paperAppend(nil, p); !errors.Is(err, ErrNotSnapshottable) {
		t.Fatalf("paperAppend(unbounded) = %v, want ErrNotSnapshottable", err)
	}
}

// warmState trains a predictor on a short stream and saves it.
func warmState(t *testing.T, cfg Config) []byte {
	t.Helper()
	p := MustNew(cfg)
	for _, tc := range randStream(5, 500) {
		p.Predict()
		p.Update(tc)
	}
	state, err := mustBackend(t, cfg).Save(p)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	return state
}

// paperLayout locates the sections of an encoded paper state, so tests
// can patch fields in place.
type paperLayout struct {
	hist, rhs, corr, sec int // section offsets
	nCorr, nSec          int
}

func layoutOf(t *testing.T, st []byte) paperLayout {
	t.Helper()
	le := binary.LittleEndian
	l := paperLayout{hist: paperHeadBytes + paperStatsBytes}
	l.rhs = l.hist + stateRegBytes
	off := l.rhs
	if st[1]&paperFlagUseRHS != 0 {
		off += 4 + int(le.Uint16(st[off+2:]))*stateRegBytes
	}
	if st[1]&paperFlagHasFaults != 0 {
		off += paperFaultsBytes
	}
	l.corr, l.nCorr = off, int(le.Uint32(st[off:]))
	l.sec = l.corr + 4 + l.nCorr*paperCorrEntryBytes
	l.nSec = int(le.Uint32(st[l.sec:]))
	if end := l.sec + 4 + l.nSec*paperSecEntryBytes; end != len(st) {
		t.Fatalf("layout ends at %d, state is %d bytes", end, len(st))
	}
	return l
}

func (l paperLayout) corrEntry(i int) int { return l.corr + 4 + i*paperCorrEntryBytes }
func (l paperLayout) secEntry(i int) int  { return l.sec + 4 + i*paperSecEntryBytes }

func TestRestoreGeometryMismatch(t *testing.T) {
	cfg := Config{Depth: 7, IndexBits: 12, Hybrid: true, UseRHS: true}
	state := warmState(t, cfg)
	cases := map[string]Config{
		"indexBits":   {Depth: 7, IndexBits: 13, Hybrid: true, UseRHS: true},
		"depth":       {Depth: 6, IndexBits: 12, Hybrid: true, UseRHS: true},
		"noRHS":       {Depth: 7, IndexBits: 12, Hybrid: true},
		"costReduced": {Depth: 7, IndexBits: 12, Hybrid: true, UseRHS: true, CostReduced: true},
		"tagBits":     {Depth: 7, IndexBits: 12, Hybrid: true, UseRHS: true, TagBits: 8},
	}
	for name, c := range cases {
		if _, err := paperRestore(state, c); !errors.Is(err, ErrStateMismatch) {
			t.Errorf("%s: Restore = %v, want ErrStateMismatch", name, err)
		}
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	cfg := Config{Depth: 4, IndexBits: 10, Hybrid: true, UseRHS: true}
	le := binary.LittleEndian
	mutations := map[string]func(st []byte, l paperLayout) []byte{
		"corr index out of range": func(st []byte, l paperLayout) []byte {
			le.PutUint32(st[l.corrEntry(0):], 1<<30)
			return st
		},
		"corr indices not ascending": func(st []byte, l paperLayout) []byte {
			copy(st[l.corrEntry(1):l.corrEntry(1)+4], st[l.corrEntry(0):])
			return st
		},
		"corr counter overflow": func(st []byte, l paperLayout) []byte {
			st[l.corrEntry(0)+22] = 0xFF
			return st
		},
		"corr value overflow": func(st []byte, l paperLayout) []byte {
			le.PutUint64(st[l.corrEntry(0)+6:], 1<<63)
			return st
		},
		"corr flag byte": func(st []byte, l paperLayout) []byte {
			st[l.corrEntry(0)+23] = 2
			return st
		},
		"sec index out of range": func(st []byte, l paperLayout) []byte {
			le.PutUint32(st[l.secEntry(0):], 1<<30)
			return st
		},
		"sec counter overflow": func(st []byte, l paperLayout) []byte {
			st[l.secEntry(0)+12] = 0xFF
			return st
		},
		"history size": func(st []byte, l paperLayout) []byte {
			st[l.hist] = 0
			return st
		},
		"history fill": func(st []byte, l paperLayout) []byte {
			st[l.hist+1] = 99
			return st
		},
		// The flag still promises an RHS, but the section is gone.
		"missing RHS": func(st []byte, l paperLayout) []byte { return st[:l.rhs] },
		"rhs bad capacity": func(st []byte, l paperLayout) []byte {
			le.PutUint16(st[l.rhs:], 0)
			return st
		},
		"unknown flag bit": func(st []byte, l paperLayout) []byte {
			st[1] |= 1 << 7
			return st
		},
		"truncated":     func(st []byte, l paperLayout) []byte { return st[:len(st)-1] },
		"trailing byte": func(st []byte, l paperLayout) []byte { return append(st, 0) },
	}
	for name, mut := range mutations {
		st := warmState(t, cfg)
		l := layoutOf(t, st)
		if l.nCorr < 2 || l.nSec < 1 {
			t.Fatalf("warm state too sparse for mutation %q (corr %d, sec %d)", name, l.nCorr, l.nSec)
		}
		if _, err := paperRestore(mut(st, l), cfg); !errors.Is(err, ErrBadState) {
			t.Errorf("%s: Restore = %v, want ErrBadState", name, err)
		}
	}
	if _, err := paperRestore(nil, cfg); !errors.Is(err, ErrBadState) {
		t.Errorf("Restore(nil) = %v, want ErrBadState", err)
	}
}

func TestRestoreRejectsBasicWithSecondaryEntries(t *testing.T) {
	cfg := Config{Depth: 3, IndexBits: 10}
	st := warmState(t, cfg)
	l := layoutOf(t, st)
	binary.LittleEndian.PutUint32(st[l.sec:], 1)
	entry := make([]byte, paperSecEntryBytes)
	entry[4] = 1 // index 0, value 1, counter 0
	st = append(st, entry...)
	if _, err := paperRestore(st, cfg); !errors.Is(err, ErrBadState) {
		t.Fatalf("Restore = %v, want ErrBadState", err)
	}
}
