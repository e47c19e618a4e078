package stream

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"pathtrace/internal/faults"
	"pathtrace/internal/predictor"
	"pathtrace/internal/sim"
	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

const testLimit = 200_000

// simulateFresh runs the workload directly (no capture) and feeds each
// selected trace to fn — the pre-stream code path, used as the ground
// truth for equivalence tests.
func simulateFresh(t *testing.T, w *workload.Workload, limit uint64, sel trace.Config, fn func(*trace.Trace)) (instrs, traces uint64) {
	t.Helper()
	prog, err := w.ProgramErr()
	if err != nil {
		t.Fatalf("%s: program: %v", w.Name, err)
	}
	cpu, err := sim.New(prog)
	if err != nil {
		t.Fatalf("%s: sim: %v", w.Name, err)
	}
	selector, err := trace.NewSelector(sel, fn)
	if err != nil {
		t.Fatalf("%s: selector: %v", w.Name, err)
	}
	if err := cpu.RunContext(nil, limit, selector.Feed); err != nil {
		t.Fatalf("%s: run: %v", w.Name, err)
	}
	selector.Flush()
	return selector.Instrs(), selector.Traces()
}

// copyTrace deep-copies a selector-owned trace for retention.
func copyTrace(tr *trace.Trace) trace.Trace {
	cp := *tr
	cp.Branches = append([]trace.Branch(nil), tr.Branches...)
	cp.Mems = append([]trace.MemRef(nil), tr.Mems...)
	return cp
}

func tracesEqual(a, b *trace.Trace) bool {
	if a.ID != b.ID || a.Hash != b.Hash || a.StartPC != b.StartPC ||
		a.NextPC != b.NextPC || a.Len != b.Len || a.NumBr != b.NumBr ||
		a.Calls != b.Calls || a.EndsInRet != b.EndsInRet || a.EndsHalt != b.EndsHalt ||
		len(a.Branches) != len(b.Branches) || len(a.Mems) != len(b.Mems) {
		return false
	}
	for i := range a.Branches {
		if a.Branches[i] != b.Branches[i] {
			return false
		}
	}
	for i := range a.Mems {
		if a.Mems[i] != b.Mems[i] {
			return false
		}
	}
	return true
}

// TestReplayMatchesFreshSimulation checks, for every workload, that the
// replayed stream is field-for-field identical to a fresh simulation:
// same trace sequence (including Branches and Mems), same instruction
// and trace totals.
func TestReplayMatchesFreshSimulation(t *testing.T) {
	sel := trace.DefaultConfig()
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var fresh []trace.Trace
			fi, ft := simulateFresh(t, w, testLimit, sel, func(tr *trace.Trace) {
				fresh = append(fresh, copyTrace(tr))
			})

			s, err := Capture(nil, w, testLimit, sel)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			i := 0
			ri, rt, err := s.Replay(nil, func(tr *trace.Trace) {
				if i < len(fresh) && !tracesEqual(tr, &fresh[i]) {
					t.Fatalf("trace %d differs: replay %+v fresh %+v", i, *tr, fresh[i])
				}
				i++
			})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if i != len(fresh) {
				t.Fatalf("replayed %d traces, fresh simulation selected %d", i, len(fresh))
			}
			if ri != fi || rt != ft {
				t.Errorf("totals differ: replay (%d, %d) fresh (%d, %d)", ri, rt, fi, ft)
			}
		})
	}
}

// TestReplayPredictorAccuracyIdentical asserts bit-identical predictor
// statistics between a predictor driven by replay and one driven by a
// fresh simulation — clean and under fault injection with a fixed seed
// (faults are downstream of trace selection, so a cached stream must
// give injected runs the same inputs as a live simulation would).
func TestReplayPredictorAccuracyIdentical(t *testing.T) {
	sel := trace.DefaultConfig()
	cfgs := map[string]func() predictor.Config{
		"clean": func() predictor.Config {
			return predictor.Config{Depth: 7, IndexBits: 14, Hybrid: true, UseRHS: true}
		},
		"inject": func() predictor.Config {
			return predictor.Config{
				Depth: 7, IndexBits: 14, Hybrid: true, UseRHS: true,
				Faults: faults.New(faults.Config{Table: 1e-3, History: 1e-4, Seed: 42}),
			}
		},
	}
	for name, mk := range cfgs {
		mk := mk
		t.Run(name, func(t *testing.T) {
			for _, w := range workload.All() {
				pFresh := predictor.MustNew(mk())
				simulateFresh(t, w, testLimit, sel, func(tr *trace.Trace) {
					pFresh.Predict()
					pFresh.Update(tr)
				})

				pReplay := predictor.MustNew(mk())
				s, err := Capture(nil, w, testLimit, sel)
				if err != nil {
					t.Fatalf("%s: capture: %v", w.Name, err)
				}
				if _, _, err := s.Replay(nil, func(tr *trace.Trace) {
					pReplay.Predict()
					pReplay.Update(tr)
				}); err != nil {
					t.Fatalf("%s: replay: %v", w.Name, err)
				}

				if pFresh.Stats() != pReplay.Stats() {
					t.Errorf("%s: stats differ: fresh %+v replay %+v",
						w.Name, pFresh.Stats(), pReplay.Stats())
				}
			}
		})
	}
}

// TestReplayAllocFree verifies the replay loop performs zero heap
// allocations once the stream is captured.
func TestReplayAllocFree(t *testing.T) {
	w, ok := workload.ByName("go")
	if !ok {
		t.Fatal("workload go missing")
	}
	s, err := Capture(nil, w, 50_000, trace.DefaultConfig())
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	var n uint64
	sink := func(tr *trace.Trace) { n += uint64(tr.Len) }
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := s.Replay(nil, sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Replay allocates %v per run, want 0", allocs)
	}
}

// TestAtReusesDirtyTrace checks that At overwrites every field of a
// reused trace: materialising into a dst left over from other use, with
// every field set and roomier Branches/Mems, gives exactly what a zero
// dst gets, aliasing the same shared arrays. It also checks the
// capacity clamp: appending to the returned slices must copy, never
// write into the stream's arrays.
func TestAtReusesDirtyTrace(t *testing.T) {
	w, ok := workload.ByName("go")
	if !ok {
		t.Fatal("workload go missing")
	}
	s, err := Capture(nil, w, 50_000, trace.DefaultConfig())
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	branches := append([]trace.Branch(nil), s.branches...)
	mems := append([]trace.MemRef(nil), s.mems...)
	dirty := trace.Trace{
		ID: 1<<36 - 1, Hash: 0x3ff, StartPC: 0xdead, NextPC: 0xbeef,
		Len: -1, NumBr: -1, Calls: -1, EndsInRet: true, EndsHalt: true,
		Branches: make([]trace.Branch, 3, 64),
		Mems:     make([]trace.MemRef, 3, 64),
	}
	v := reflect.ValueOf(dirty)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("dirty trace leaves %s zero; set it so At must overwrite it", v.Type().Field(i).Name)
		}
	}
	for i := 0; i < s.Len(); i++ {
		var clean trace.Trace
		s.At(i, &clean)
		got := dirty
		s.At(i, &got)
		if !reflect.DeepEqual(got, clean) {
			t.Fatalf("trace %d: At into a dirty dst = %+v, into a zero dst = %+v", i, got, clean)
		}
		if cap(got.Branches) != len(got.Branches) || cap(got.Mems) != len(got.Mems) {
			t.Fatalf("trace %d: capacities %d/%d exceed lengths %d/%d",
				i, cap(got.Branches), cap(got.Mems), len(got.Branches), len(got.Mems))
		}
		if len(got.Branches) > 0 && &got.Branches[0] != &clean.Branches[0] ||
			len(got.Mems) > 0 && &got.Mems[0] != &clean.Mems[0] {
			t.Fatalf("trace %d: dirty and zero dst do not alias the same shared arrays", i)
		}
		_ = append(got.Branches, trace.Branch{PC: 0xffffffff, Taken: true})
		_ = append(got.Mems, trace.MemRef{Addr: 0xffffffff, Store: true})
	}
	if !reflect.DeepEqual(s.branches, branches) || !reflect.DeepEqual(s.mems, mems) {
		t.Fatal("appending to At's slices wrote into the stream's shared arrays")
	}
}

// TestCacheDedupConcurrent checks that concurrent Gets for one key
// share a single capture and return the same stream.
func TestCacheDedupConcurrent(t *testing.T) {
	c := NewCache()
	w, _ := workload.ByName("go")
	const goroutines = 8
	streams := make([]*Stream, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := c.Get(nil, w, 50_000, trace.DefaultConfig())
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			streams[i] = s
		}()
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if streams[i] != streams[0] {
			t.Fatalf("goroutine %d got a different stream", i)
		}
	}
	st := c.Stats()
	if st.Captures != 1 {
		t.Errorf("captures = %d, want 1", st.Captures)
	}
	if st.Hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", st.Hits, goroutines-1)
	}
	if st.Streams != 1 || st.Bytes <= 0 {
		t.Errorf("stored streams = %d bytes = %d", st.Streams, st.Bytes)
	}
}

// TestCacheFailedCaptureNotStored checks a context-cancelled capture is
// not cached and a later request retries successfully.
func TestCacheFailedCaptureNotStored(t *testing.T) {
	c := NewCache()
	w, _ := workload.ByName("go")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, w, 50_000, trace.DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled get: err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Failures != 1 || st.Streams != 0 {
		t.Fatalf("after failure: %+v", st)
	}
	s, err := c.Get(nil, w, 50_000, trace.DefaultConfig())
	if err != nil || s == nil {
		t.Fatalf("retry: %v", err)
	}
	if st := c.Stats(); st.Captures != 1 || st.Streams != 1 {
		t.Fatalf("after retry: %+v", st)
	}
}

// TestCacheWaiterRespectsOwnContext checks a waiter blocked on another
// goroutine's slow capture gives up when its own context expires.
func TestCacheWaiterRespectsOwnContext(t *testing.T) {
	w, ok := workload.ByName("hang")
	if !ok {
		t.Skip("no hang workload")
	}
	c := NewCache()
	capturing := make(chan struct{})
	go func() {
		close(capturing)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		c.Get(ctx, w, 1<<40, trace.DefaultConfig()) // runs until its deadline
	}()
	<-capturing
	time.Sleep(10 * time.Millisecond) // let the capturer insert its entry
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Get(ctx, w, 1<<40, trace.DefaultConfig())
	if err == nil {
		t.Fatal("waiter did not fail")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("waiter blocked %v past its own deadline", d)
	}
}

// TestCacheKeying checks distinct limits and selection configs get
// distinct streams.
func TestCacheKeying(t *testing.T) {
	c := NewCache()
	w, _ := workload.ByName("go")
	a, err := c.Get(nil, w, 30_000, trace.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get(nil, w, 60_000, trace.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel := trace.Config{MaxLen: 32, MaxBranches: 6}
	d, err := c.Get(nil, w, 30_000, sel)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a == d {
		t.Fatal("distinct keys shared a stream")
	}
	if st := c.Stats(); st.Captures != 3 || st.Streams != 3 {
		t.Fatalf("stats: %+v", st)
	}
	c.Reset()
	if st := c.Stats(); st.Streams != 0 || st.Bytes != 0 {
		t.Fatalf("after reset: %+v", st)
	}
	a2, err := c.Get(nil, w, 30_000, trace.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a2 == a {
		t.Fatal("reset did not drop stored stream")
	}
}

// TestSizeBytes: SizeBytes is the arrays' capacity times their element
// sizes (40-byte records, 12-byte branches, 8-byte memory references).
// A capture's arrays are exact-length, so it holds no slack; a decoded
// stream counts whatever slack its arrays grew.
func TestSizeBytes(t *testing.T) {
	s := captureForTest(t, "go")
	if cap(s.recs) != len(s.recs) || cap(s.branches) != len(s.branches) || cap(s.mems) != len(s.mems) {
		t.Errorf("capture holds slack: recs %d/%d, branches %d/%d, mems %d/%d",
			len(s.recs), cap(s.recs), len(s.branches), cap(s.branches), len(s.mems), cap(s.mems))
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Stream{"captured": s, "decoded": d} {
		want := 40*int64(cap(st.recs)) + 12*int64(cap(st.branches)) + 8*int64(cap(st.mems))
		if got := st.SizeBytes(); got != want {
			t.Errorf("%s: SizeBytes = %d, want %d", name, got, want)
		}
	}
}
