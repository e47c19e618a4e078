package predictor

import (
	"bytes"
	"math/rand"
	"testing"

	"pathtrace/internal/trace"
)

func TestTageLearnsDeterministicSequence(t *testing.T) {
	seq := []*trace.Trace{tr(0x1000, 0), tr(0x2000, 1), tr(0x1000, 0), tr(0x3000, 2)}
	p := MustNew(Config{Backend: "tage", Depth: 2, IndexBits: 14})
	st := drive(p, seq, 50, 10)
	if st.Correct != st.Predictions {
		t.Errorf("steady state: %d/%d correct", st.Correct, st.Predictions)
	}
}

func TestTageDepthZeroCannotDisambiguate(t *testing.T) {
	seq := []*trace.Trace{tr(0x1000, 0), tr(0x2000, 1), tr(0x1000, 0), tr(0x3000, 2)}
	p := MustNew(Config{Backend: "tage", Depth: 0, IndexBits: 14})
	st := drive(p, seq, 50, 10)
	if st.Correct == st.Predictions {
		t.Errorf("depth 0 impossibly predicted alternating successor perfectly (%d/%d)",
			st.Correct, st.Predictions)
	}
}

func TestTageRejectsCostReduced(t *testing.T) {
	if _, err := New(Config{Backend: "tage", CostReduced: true}); err == nil {
		t.Fatal("tage accepted a cost-reduced config")
	}
}

// tageWorkload drives a deterministic pseudo-random trace mix with
// enough repeated paths that tagged tables allocate, train, and evict.
func tageWorkload(p NextTracePredictor, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	traces := make([]*trace.Trace, 64)
	for i := range traces {
		traces[i] = tr(uint32(0x1000+i*0x40), uint8(i))
	}
	state := 0
	for i := 0; i < n; i++ {
		p.Predict()
		// Mostly deterministic walk with occasional random jumps, so the
		// stream has both predictable and hard paths.
		if rng.Intn(8) == 0 {
			state = rng.Intn(len(traces))
		} else {
			state = (state*5 + 3) % len(traces)
		}
		p.Update(traces[state])
	}
}

func TestTageSaveRestoreResumesBitIdentically(t *testing.T) {
	cfg := Config{Backend: "tage", Depth: 7, IndexBits: 12}
	b, ok := BackendByName("tage")
	if !ok {
		t.Fatal("tage backend not registered")
	}

	orig := MustNew(cfg)
	tageWorkload(orig, 42, 20_000)

	state, err := b.Save(orig)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := b.Restore(state, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Stats(), orig.Stats(); !got.Equal(want) {
		t.Fatalf("restored stats %+v != original %+v", got, want)
	}

	// Same continuation stream through both: every prediction must
	// match, and so must the final states.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5_000; i++ {
		po, pr := orig.Predict(), restored.Predict()
		if po != pr {
			t.Fatalf("round %d: original %+v restored %+v", i, po, pr)
		}
		next := tr(uint32(0x1000+rng.Intn(64)*0x40), uint8(rng.Intn(64)))
		orig.Update(next)
		restored.Update(next)
	}
	so, _ := b.Save(orig)
	sr, _ := b.Save(restored)
	if !bytes.Equal(so, sr) {
		t.Fatal("diverged after resume: saved states differ")
	}
}

func TestTageRestoreRejectsMismatchedGeometry(t *testing.T) {
	b, _ := BackendByName("tage")
	p := MustNew(Config{Backend: "tage", Depth: 7, IndexBits: 12})
	tageWorkload(p, 1, 1_000)
	state, err := b.Save(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Backend: "tage", Depth: 3, IndexBits: 12},
		{Backend: "tage", Depth: 7, IndexBits: 16},
		{Backend: "tage", Depth: 7, IndexBits: 12, TagBits: 12},
	} {
		if _, err := b.Restore(state, cfg); err == nil {
			t.Errorf("restore accepted mismatched config %+v", cfg)
		}
	}
}

func TestTageRestoreRejectsCorruptState(t *testing.T) {
	b, _ := BackendByName("tage")
	cfg := Config{Backend: "tage", Depth: 7, IndexBits: 12}
	p := MustNew(cfg)
	tageWorkload(p, 2, 5_000)
	state, err := b.Save(p)
	if err != nil {
		t.Fatal(err)
	}

	// Truncations at every boundary must error, never panic.
	for _, n := range []int{0, 1, 10, len(state) / 2, len(state) - 1} {
		if _, err := b.Restore(state[:n], cfg); err == nil {
			t.Errorf("restore accepted %d-byte truncation", n)
		}
	}
	// A wrong version byte is refused outright.
	bad := append([]byte(nil), state...)
	bad[0] = 99
	if _, err := b.Restore(bad, cfg); err == nil {
		t.Error("restore accepted unknown state version")
	}
	// Trailing garbage is refused.
	if _, err := b.Restore(append(append([]byte(nil), state...), 0), cfg); err == nil {
		t.Error("restore accepted trailing bytes")
	}
}

func TestTageHotPathDoesNotAllocate(t *testing.T) {
	p := MustNew(Config{Backend: "tage", Depth: 7, IndexBits: 12})
	traces := make([]*trace.Trace, 16)
	for i := range traces {
		traces[i] = tr(uint32(0x1000+i*0x40), uint8(i))
	}
	tageWorkload(p, 3, 2_000) // warm the tables first
	i := 0
	allocs := testing.AllocsPerRun(10_000, func() {
		p.Predict()
		p.Update(traces[i%len(traces)])
		i++
	})
	if allocs != 0 {
		t.Errorf("predict/update allocates %v per round, want 0", allocs)
	}
}
