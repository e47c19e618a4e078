package stream

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

const diskTestLimit = 50_000

func captureForTest(t *testing.T, name string) *Stream {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	s, err := Capture(nil, w, diskTestLimit, trace.DefaultConfig())
	if err != nil {
		t.Fatalf("Capture(%s): %v", name, err)
	}
	return s
}

func TestDiskRoundTrip(t *testing.T) {
	for _, w := range workload.All() {
		s := captureForTest(t, w.Name)
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatalf("%s: Encode: %v", w.Name, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: Decode: %v", w.Name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%s: decoded stream differs from captured", w.Name)
		}
	}
}

func TestDiskSaveLoadKey(t *testing.T) {
	dir := t.TempDir()
	s := captureForTest(t, "compress")
	path, err := s.Save(dir)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if filepath.Base(path) != s.Key().Filename() {
		t.Errorf("saved as %s, want %s", filepath.Base(path), s.Key().Filename())
	}
	got, err := LoadKey(dir, s.Key())
	if err != nil {
		t.Fatalf("LoadKey: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Error("loaded stream differs from saved")
	}

	// A different key must not resolve to this file.
	if _, err := LoadKey(dir, Key{Workload: "compress", Limit: diskTestLimit + 1, Sel: trace.DefaultConfig()}); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("LoadKey(wrong limit) = %v, want ErrNotExist", err)
	}

	// A file renamed over another key's name is rejected by the header
	// check, not silently accepted.
	other := Key{Workload: "compress", Limit: diskTestLimit * 2, Sel: trace.DefaultConfig()}
	if err := os.Rename(path, filepath.Join(dir, other.Filename())); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKey(dir, other); !errors.Is(err, ErrCorrupt) {
		t.Errorf("LoadKey(renamed file) = %v, want ErrCorrupt", err)
	}
}

func TestDiskCorruptionRejected(t *testing.T) {
	s := captureForTest(t, "compress")
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 0x40
		return out
	}
	cases := map[string][]byte{
		"bad magic":      flip(good, 0),
		"v1 magic":       append([]byte("NTPSTRM1"), good[len(diskMagic):]...),
		"flipped header": flip(good, 12),
		"flipped body":   flip(good, len(good)/2),
		"flipped crc":    flip(good, len(good)-1),
		"truncated":      good[:len(good)-5],
		"empty":          nil,
	}
	for name, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestCacheStreamDir(t *testing.T) {
	dir := t.TempDir()
	w, _ := workload.ByName("compress")
	sel := trace.DefaultConfig()

	c1 := NewCache()
	if err := c1.SetDir(dir); err != nil {
		t.Fatalf("SetDir: %v", err)
	}
	s1, err := c1.Get(nil, w, diskTestLimit, sel)
	if err != nil {
		t.Fatalf("first Get: %v", err)
	}
	if st := c1.Stats(); st.Captures != 1 || st.Loads != 0 || st.Saves != 1 {
		t.Errorf("first cache stats = %+v, want 1 capture, 0 loads, 1 save", st)
	}

	// A second cache (a later process) loads the file instead of
	// simulating, and the stream is identical.
	c2 := NewCache()
	if err := c2.SetDir(dir); err != nil {
		t.Fatalf("SetDir: %v", err)
	}
	s2, err := c2.Get(nil, w, diskTestLimit, sel)
	if err != nil {
		t.Fatalf("second Get: %v", err)
	}
	if st := c2.Stats(); st.Captures != 0 || st.Loads != 1 || st.Saves != 0 {
		t.Errorf("second cache stats = %+v, want 0 captures, 1 load, 0 saves", st)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("loaded stream differs from captured")
	}

	// A corrupt file falls back to capture and is rewritten.
	path := filepath.Join(dir, Key{Workload: w.Name, Limit: diskTestLimit, Sel: sel}.Filename())
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := NewCache()
	if err := c3.SetDir(dir); err != nil {
		t.Fatalf("SetDir: %v", err)
	}
	s3, err := c3.Get(nil, w, diskTestLimit, sel)
	if err != nil {
		t.Fatalf("Get over corrupt file: %v", err)
	}
	if st := c3.Stats(); st.Captures != 1 || st.Loads != 0 || st.Saves != 1 || st.BadLoads != 1 {
		t.Errorf("corrupt-fallback stats = %+v, want 1 capture, 0 loads, 1 save, 1 bad load", st)
	}
	if !reflect.DeepEqual(s1, s3) {
		t.Error("re-captured stream differs")
	}

	// The fallback save repaired the file: a fresh cache loads it.
	c4 := NewCache()
	if err := c4.SetDir(dir); err != nil {
		t.Fatalf("SetDir: %v", err)
	}
	if _, err := c4.Get(nil, w, diskTestLimit, sel); err != nil {
		t.Fatalf("Get after repair: %v", err)
	}
	if st := c4.Stats(); st.Loads != 1 || st.BadLoads != 0 || st.Captures != 0 {
		t.Errorf("post-repair stats = %+v, want a clean load", st)
	}
}

// TestCacheCorruptLoadNotPermanent pins the failure-retry contract in
// the presence of a bad stream file: when the fallback capture also
// fails (here: an already-expired context), the error must surface to
// the caller, be counted, and NOT be cached — a later Get under a live
// context must recover by re-capturing and repairing the file.
func TestCacheCorruptLoadNotPermanent(t *testing.T) {
	dir := t.TempDir()
	w, _ := workload.ByName("compress")
	sel := trace.DefaultConfig()

	// Seed a corrupt stream file under the key's name.
	path := filepath.Join(dir, Key{Workload: w.Name, Limit: diskTestLimit, Sel: sel}.Filename())
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	c := NewCache()
	if err := c.SetDir(dir); err != nil {
		t.Fatalf("SetDir: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the load fails on corruption, then the capture on ctx
	if _, err := c.Get(ctx, w, diskTestLimit, sel); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get(corrupt file, dead ctx) = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Failures != 1 || st.BadLoads != 1 || st.Streams != 0 {
		t.Errorf("failed-get stats = %+v, want 1 failure, 1 bad load, 0 streams", st)
	}

	// The failure was not negatively cached: the same cache, asked again
	// under a live context, re-reads disk, falls back, and repairs.
	s, err := c.Get(nil, w, diskTestLimit, sel)
	if err != nil {
		t.Fatalf("retry Get: %v", err)
	}
	st := c.Stats()
	if st.Captures != 1 || st.BadLoads != 2 || st.Saves != 1 || st.Streams != 1 {
		t.Errorf("retry stats = %+v, want 1 capture, 2 bad loads, 1 save, 1 stream", st)
	}

	// And the save genuinely repaired the file on disk.
	got, err := LoadKey(dir, s.Key())
	if err != nil {
		t.Fatalf("LoadKey after repair: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Error("repaired file differs from captured stream")
	}
}
