package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

// Two same-name/different-seed synthetic workloads must never share a
// cache entry or a .ntps file: the generator parameterization is part
// of the stream key, the file name, and the on-disk header.
func TestParamsKeyedStreamsNeverCollide(t *testing.T) {
	a := workload.NewWild("twin", workload.WildParams{Seed: 1, Iters: 50_000})
	b := workload.NewWild("twin", workload.WildParams{Seed: 2, Iters: 50_000})
	sel := trace.DefaultConfig()
	const limit = 20_000

	ka := Key{Workload: a.Name, Params: a.Params, Limit: limit, Sel: sel}
	kb := Key{Workload: b.Name, Params: b.Params, Limit: limit, Sel: sel}
	if ka == kb {
		t.Fatal("different-seed instances produced equal keys")
	}
	if ka.Filename() == kb.Filename() {
		t.Fatalf("different-seed instances share file name %s", ka.Filename())
	}

	// The cache must treat them as distinct entries with distinct
	// captured content.
	c := NewCache()
	sa, err := c.Get(nil, a, limit, sel)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := c.Get(nil, b, limit, sel)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Captures != 2 || st.Hits != 0 {
		t.Fatalf("cache collapsed distinct params: %+v", st)
	}
	var ba, bb bytes.Buffer
	if err := sa.Encode(&ba); err != nil {
		t.Fatal(err)
	}
	if err := sb.Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("different-seed instances captured identical streams")
	}

	// Same instance again: a hit, not a recapture.
	if _, err := c.Get(nil, a, limit, sel); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("same-params re-get missed the cache: %+v", st)
	}

	// On disk, both live side by side and LoadKey returns the right
	// one; asking with the wrong params must not silently hand back
	// the other instance's stream.
	dir := t.TempDir()
	if _, err := sa.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Save(dir); err != nil {
		t.Fatal(err)
	}
	ga, err := LoadKey(dir, ka)
	if err != nil {
		t.Fatal(err)
	}
	if ga.Key() != ka {
		t.Fatalf("LoadKey(%v) returned key %v", ka, ga.Key())
	}
	// Rename b's file over a's name: the header check must reject it.
	if err := os.Rename(filepath.Join(dir, kb.Filename()), filepath.Join(dir, ka.Filename())); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKey(dir, ka); err == nil {
		t.Fatal("LoadKey accepted a stream captured under different params")
	}
}

// Streams captured by a same-seed re-generation are bit-identical, so
// params-keyed capture is still deterministic (cache warm starts stay
// valid across processes).
func TestParamsKeyedCaptureDeterministic(t *testing.T) {
	sel := trace.DefaultConfig()
	var bufs [2]bytes.Buffer
	for i := range bufs {
		w := workload.NewStorm("det", workload.StormParams{Seed: 9, Iters: 50_000})
		s, err := Capture(nil, w, 20_000, sel)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Encode(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("same-seed captures are not bit-identical")
	}
}
