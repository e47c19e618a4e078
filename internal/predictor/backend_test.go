package predictor

import (
	"bytes"
	"testing"
)

func TestBackendRegistryContents(t *testing.T) {
	want := []string{"basic", "costreduced", "hybrid", "tage", "unbounded"}
	got := BackendNames()
	if len(got) < len(want) {
		t.Fatalf("registered backends %v, want at least %v", got, want)
	}
	for _, name := range want {
		b, ok := BackendByName(name)
		if !ok {
			t.Errorf("backend %q not registered", name)
			continue
		}
		if b.Name != name || b.Family == "" || b.New == nil {
			t.Errorf("backend %q descriptor malformed: %+v", name, b)
		}
	}
	if b, _ := BackendByName("unbounded"); b.Snapshottable() {
		t.Error("unbounded backend claims to be snapshottable")
	}
	for _, name := range []string{"basic", "hybrid", "costreduced", "tage"} {
		if b, _ := BackendByName(name); !b.Snapshottable() {
			t.Errorf("backend %q should be snapshottable", name)
		}
	}
}

func TestBackendLegacyResolution(t *testing.T) {
	// Empty Backend keeps the pre-registry semantics.
	if p := MustNew(Config{Depth: 1, IndexBits: 10}); p == nil {
		t.Fatal("legacy basic construction failed")
	}
	if _, ok := MustNew(Config{Depth: 1, IndexBits: 10, Hybrid: true}).(*Hybrid); !ok {
		t.Fatal("legacy Hybrid flag no longer builds a hybrid")
	}
	// basic ignores UseRHS, as tage does: the legacy selection with RHS
	// predicts exactly what an explicit basic without it predicts.
	plain := MustNew(Config{Backend: "basic", Depth: 3, IndexBits: 10})
	withRHS := MustNew(Config{Depth: 3, IndexBits: 10, UseRHS: true})
	for i, tc := range randStream(17, 3000) {
		if a, b := plain.Predict(), withRHS.Predict(); a != b {
			t.Fatalf("round %d: basic predicted %+v, basic+RHS %+v", i, a, b)
		}
		plain.Update(tc)
		withRHS.Update(tc)
	}
	if plain.Stats() != withRHS.Stats() {
		t.Fatalf("basic stats %+v != basic+RHS %+v", plain.Stats(), withRHS.Stats())
	}
	// Unknown names are a construction-time error naming the registry.
	if _, err := New(Config{Backend: "nope"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	// The explicit names force their variant regardless of the flags.
	if _, ok := MustNew(Config{Backend: "hybrid"}).(*Hybrid); !ok {
		t.Fatal("explicit hybrid did not build a hybrid")
	}
	if _, ok := MustNew(Config{Backend: "unbounded", Hybrid: true}).(*Unbounded); !ok {
		t.Fatal("explicit unbounded did not build an unbounded predictor")
	}
}

// TestBackendSaveRestoreRoundTrip drives every snapshottable backend,
// saves it through its registry hooks, restores, and checks the resumed
// predictor is bit-identical — the per-backend contract the serving
// layer's snapshots rely on.
func TestBackendSaveRestoreRoundTrip(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"basic", Config{Backend: "basic", Depth: 5, IndexBits: 12}},
		{"hybrid", Config{Backend: "hybrid", Depth: 7, IndexBits: 12, UseRHS: true}},
		{"costreduced", Config{Backend: "costreduced", Depth: 7, IndexBits: 12}},
		{"tage", Config{Backend: "tage", Depth: 7, IndexBits: 12}},
	}
	covered := map[string]bool{}
	for _, c := range configs {
		covered[c.cfg.Backend] = true
		t.Run(c.name, func(t *testing.T) { checkSaveRestore(t, c.cfg, c.cfg) })
	}
	for _, b := range Backends() {
		if b.Snapshottable() && !covered[b.Name] {
			t.Errorf("no round-trip config for newly registered backend %q — add one", b.Name)
		}
	}
}

// FuzzStateRestore feeds hostile state bytes to the Restore hook of
// every snapshottable backend, and of a hybrid at its widest lanes; the
// leading input byte picks the target. Restore must not panic, must allocate no more than the
// input and the fixed config warrant, and an accepted state must
// re-save to a byte-identical fixed point.
func FuzzStateRestore(f *testing.F) {
	configs := map[string]Config{ // small geometries keep each restore cheap
		"basic":       {Backend: "basic", Depth: 3, IndexBits: 10},
		"costreduced": {Backend: "costreduced", Depth: 7, IndexBits: 10, UseRHS: true},
		"hybrid":      {Backend: "hybrid", Depth: 7, IndexBits: 10, UseRHS: true},
		"tage":        {Backend: "tage", Depth: 7, IndexBits: 10},
	}
	type target struct {
		b   Backend
		cfg Config
	}
	var targets []target
	for _, b := range Backends() {
		if !b.Snapshottable() {
			continue
		}
		cfg, ok := configs[b.Name]
		if !ok {
			f.Fatalf("no fuzz config for snapshottable backend %q — add one", b.Name)
		}
		p := MustNew(cfg)
		for _, tc := range randStream(11, 500) {
			p.Predict()
			p.Update(tc)
		}
		state, err := b.Save(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{byte(len(targets))}, state...))
		targets = append(targets, target{b, cfg})
	}
	// The hybrid at its widest lanes, seeded with entries at every
	// lane's edge.
	f.Add(append([]byte{byte(len(targets))}, laneState(f)...))
	targets = append(targets, target{mustBackend(f, laneConfig), laneConfig})
	f.Add([]byte{})
	f.Add([]byte{0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tg := targets[int(data[0])%len(targets)]
		b, cfg := tg.b, tg.cfg
		p, err := b.Restore(data[1:], cfg)
		if err != nil {
			return
		}
		enc1, err := b.Save(p)
		if err != nil {
			t.Fatalf("%s: re-save of decoded state failed: %v", b.Name, err)
		}
		p2, err := b.Restore(enc1, cfg)
		if err != nil {
			t.Fatalf("%s: re-decode failed: %v", b.Name, err)
		}
		enc2, err := b.Save(p2)
		if err != nil {
			t.Fatalf("%s: second re-save failed: %v", b.Name, err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s: encode/decode did not reach a fixed point", b.Name)
		}
	})
}

// TestAppendIntoSizedBufferAllocatesNothing: every snapshottable
// backend writes its state section straight into a dst with room to
// spare — RHS registers included — so a snapshot refreshed in a reused
// buffer costs no allocation. The appended bytes equal Save's, and the
// dst prefix is left alone.
func TestAppendIntoSizedBufferAllocatesNothing(t *testing.T) {
	configs := map[string]Config{
		"basic":       {Backend: "basic", Depth: 3, IndexBits: 10},
		"hybrid":      {Backend: "hybrid", Depth: 7, IndexBits: 10, UseRHS: true},
		"costreduced": {Backend: "costreduced", Depth: 7, IndexBits: 10, UseRHS: true},
		"tage":        {Backend: "tage", Depth: 7, IndexBits: 10},
	}
	for _, b := range Backends() {
		if !b.Snapshottable() {
			continue
		}
		cfg, ok := configs[b.Name]
		if !ok {
			t.Errorf("no config for snapshottable backend %q — add one", b.Name)
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			p := MustNew(cfg)
			for _, tc := range randStream(11, 2000) {
				p.Predict()
				p.Update(tc)
			}
			if h, ok := p.(*Hybrid); ok && h.rhs != nil && h.rhs.Depth() == 0 {
				t.Fatal("warm-up left the RHS empty; the RHS encode would go untested")
			}
			want, err := b.Save(p)
			if err != nil {
				t.Fatal(err)
			}
			prefix := []byte("prefix")
			// cap(want) is the size the hook reserves for itself.
			dst := append(make([]byte, 0, len(prefix)+cap(want)), prefix...)
			var got []byte
			allocs := testing.AllocsPerRun(20, func() {
				got, err = b.Append(dst, p)
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("Append into a sized buffer: %v allocs, want 0", allocs)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Error("Append bytes differ from prefix + Save")
			}
		})
	}
}
