package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"pathtrace"
)

// benchRecord is one benchmarked unit in the BENCH_<date>.json output.
// The predict-batch record also names the estimator its NsPerOp comes
// from and the number of windows it was taken over; see
// benchPredictBatch.
type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Windows     int     `json:"windows,omitempty"`
	Estimator   string  `json:"estimator,omitempty"`

	mallocs uint64 // heap allocations in the timed run, unrounded; not recorded
}

// benchFile is the full JSON document, with enough provenance to make
// two files comparable.
type benchFile struct {
	Date      string        `json:"date"`
	GoVersion string        `json:"go_version"`
	GOARCH    string        `json:"goarch"`
	Limit     uint64        `json:"limit"`
	Results   []benchRecord `json:"results"`
}

// runBench measures every requested experiment (one full regeneration
// per iteration, stream cache warm) plus the batched predict loop, and
// writes the records as JSON.
func runBench(ids []string, opt pathtrace.ExperimentOptions, outPath string) int {
	if opt.Limit == 0 {
		opt.Limit = 200_000 // match bench_test.go's benchLimit
	}
	if outPath == "" {
		outPath = "BENCH_" + time.Now().Format("2006-01-02") + ".json"
	}
	out := benchFile{
		Date:      time.Now().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Limit:     opt.Limit,
	}

	for _, id := range ids {
		id := id
		// Warm the stream cache (and predictor code paths) outside the
		// measured region so every iteration measures replay, not capture.
		if _, err := pathtrace.RunExperiment(id, opt); err != nil {
			fmt.Fprintf(os.Stderr, "ntp: bench %s: %v\n", id, err)
			return 1
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pathtrace.RunExperiment(id, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		rec := benchRecord{
			Name:        id,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		out.Results = append(out.Results, rec)
		fmt.Fprintf(os.Stderr, "ntp: bench %-20s %12.0f ns/op %8d allocs/op\n",
			id, rec.NsPerOp, rec.AllocsPerOp)
	}

	rec, err := benchPredictBatch(opt.Limit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntp: bench: %v\n", err)
		return 1
	}
	out.Results = append(out.Results, rec)
	fmt.Fprintf(os.Stderr, "ntp: bench %-20s %12.0f ns/op %8d allocs/op\n",
		rec.Name, rec.NsPerOp, rec.AllocsPerOp)

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntp: bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "ntp: bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "ntp: wrote %s\n", outPath)
	return 0
}

// runBenchDiff is the CI regression gate: re-measure the headline
// hot-path benchmark and compare against a committed BENCH_*.json
// baseline. The gate rides on the predict-batch record — the batched
// loop the serving layer actually runs — which is pure CPU and
// allocation-free, so it can be gated across runs on one kind of
// host. Its ns/trace is the 1st percentile of benchWindows (1000)
// windows of about 2 ms each (see benchPredictBatch), which a loaded
// host disturbs least; an allocation in every round's timed run fails
// the gate regardless of timing (diffRounds). Exit 1 = regression, exit 2 = unusable
// baseline (including one without a predict-batch record).
func runBenchDiff(path string, limit uint64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntp: benchdiff: %v\n", err)
		return 2
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "ntp: benchdiff: %s: %v\n", path, err)
		return 2
	}
	const name = "predict-batch"
	var old *benchRecord
	for i := range base.Results {
		if base.Results[i].Name == name {
			old = &base.Results[i]
			break
		}
	}
	if old == nil {
		fmt.Fprintf(os.Stderr, "ntp: benchdiff: %s has no %s record\n", path, name)
		return 2
	}
	if limit == 0 {
		if limit = base.Limit; limit == 0 {
			limit = 200_000
		}
	}

	rec, delta, allocated, err := diffRounds(old.NsPerOp, func() (benchRecord, error) { return benchPredictBatch(limit) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntp: benchdiff: %v\n", err)
		return 2
	}
	if allocated {
		fmt.Printf("FAIL: %s allocates in its timed run in every round (want 0 allocs)\n", name)
		return 1
	}
	if old.Estimator != rec.Estimator {
		fmt.Fprintf(os.Stderr, "ntp: benchdiff: warning: baseline estimator %q, measuring %q; the two are not comparable\n",
			old.Estimator, rec.Estimator)
	}
	fmt.Printf("%s: baseline %.1f ns/op (%s), now %.1f ns/op (%s), delta %+.1f%% (limit %.0f%%)\n",
		name, old.NsPerOp, base.Date, rec.NsPerOp, rec.Estimator, delta, benchMaxRegress)
	if delta > benchMaxRegress {
		fmt.Printf("FAIL: %s regressed %.1f%% > %.0f%%\n", name, delta, benchMaxRegress)
		return 1
	}
	fmt.Println("OK")
	return 0
}

// diffRounds measures rounds of the gated benchmark, at most
// benchRounds, until one allocated nothing and the fastest so far is
// within benchMaxRegress of base ns/op, printing each round's time and
// heap allocations. A slow round is measured again, and the fastest
// counts: neighbours on a shared host can slow every window of a round,
// but a regression slows all of them. An allocating round is measured
// again too, since the runtime may allocate once in a timed run on its
// own, but a loop that allocates does so in every round: allocated
// reports that every round did.
func diffRounds(base float64, measure func() (benchRecord, error)) (rec benchRecord, delta float64, allocated bool, err error) {
	allocated = true
	for round := 1; round <= benchRounds; round++ {
		r, err := measure()
		if err != nil {
			return rec, 0, false, err
		}
		fmt.Fprintf(os.Stderr, "ntp: benchdiff round %d: %.1f ns/op, %d heap allocations\n", round, r.NsPerOp, r.mallocs)
		allocated = allocated && r.mallocs != 0
		if round == 1 || r.NsPerOp < rec.NsPerOp {
			rec = r
		}
		if delta = 100 * (rec.NsPerOp - base) / base; delta <= benchMaxRegress && !allocated {
			break
		}
	}
	return rec, delta, allocated, nil
}

// The predict-batch estimator: the 1st-percentile ns/trace of
// benchWindows windows of about benchWindow each (the 11th fastest).
// Every window replays whole passes of one stream, so windows differ
// only in what else the host ran meanwhile, and that only slows a
// window: the fastest are the least disturbed. On a shared 2-vCPU host
// neighbours slowed most windows by 60–70% for seconds at a time;
// over ten 6 s runs the 10th percentile spread 62–108 ns and the 1st
// 58–70.
const (
	benchWindow    = 2 * time.Millisecond
	benchWindows   = 1000
	benchEstimator = "p1-of-2ms-windows"
	// benchMaxRegress is the largest ns/trace regression, in percent,
	// that -benchdiff tolerates.
	benchMaxRegress = 15.0
	// benchRounds is the most rounds -benchdiff measures.
	benchRounds = 3
)

// benchPredictBatch measures the batched predict+update hot path at the
// serving layer's default batch size (64), in ns per trace by the
// estimator above. AllocsPerOp and BytesPerOp count every window,
// rounded up per trace, so they are 0 only when the timed run allocated
// nothing at all. This is the record the benchdiff gate rides on.
func benchPredictBatch(limit uint64) (benchRecord, error) {
	const batch = 64
	w, ok := pathtrace.WorkloadByName("go")
	if !ok {
		return benchRecord{}, fmt.Errorf("workload go missing")
	}
	s, err := pathtrace.CaptureTraceStream(w, limit)
	if err != nil {
		return benchRecord{}, err
	}
	n := s.Len()
	if n <= batch {
		return benchRecord{}, fmt.Errorf("stream too short for batch %d: %d traces", batch, n)
	}
	traces := make([]pathtrace.Trace, n)
	for i := range traces {
		s.At(i, &traces[i])
	}
	hybrid := pathtrace.MustNewPredictor(pathtrace.PredictorConfig{
		Depth: 7, IndexBits: 16, Hybrid: true, UseRHS: true,
	})
	preds := make([]pathtrace.Prediction, batch)
	wrap := n - batch
	off := 0
	run := func(batches int) {
		for range batches {
			pathtrace.PredictBatch(hybrid, traces[off:off+batch], preds)
			if off += batch; off >= wrap {
				off = 0
			}
		}
	}
	nsPerTrace := make([]float64, benchWindows)
	// Collect and return the capture's garbage now, so no sweep or
	// scavenge left over from it allocates during the timed run.
	debug.FreeOSMemory()

	per := 1 // batches per window, doubled until a window takes benchWindow
	for {
		start := time.Now()
		run(per)
		if time.Since(start) >= benchWindow {
			break
		}
		per *= 2
	}
	// Some of what the loop's first calls fill in lazily is filled on a
	// random call: the runtime caches an interface type assertion's
	// result on one miss in 1024, and building the cache allocates
	// (runtime.buildTypeAssertCache, from PredictBatch's assertion).
	// So warm it for ~50 windows, and at least 2^14 batches, before the
	// counted run: on a loaded host a window holds few batches, and ~50
	// windows alone could end before the cache was built, which then
	// allocated inside the count.
	run(max(50*per, 1<<14))

	// One P while counting: reading the counters stops and restarts the
	// world, and a restart that wakes an idle P can start a thread,
	// which allocates inside the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range nsPerTrace {
		start := time.Now()
		run(per)
		nsPerTrace[i] = float64(time.Since(start).Nanoseconds()) / float64(per*batch)
	}
	runtime.ReadMemStats(&m1)
	slices.Sort(nsPerTrace)
	traced := int64(benchWindows * per * batch)
	ceilDiv := func(a, b int64) int64 { return (a + b - 1) / b }
	return benchRecord{
		Name:        "predict-batch",
		Iterations:  int(traced),
		NsPerOp:     nsPerTrace[benchWindows/100],
		AllocsPerOp: ceilDiv(int64(m1.Mallocs-m0.Mallocs), traced),
		BytesPerOp:  ceilDiv(int64(m1.TotalAlloc-m0.TotalAlloc), traced),
		Windows:     benchWindows,
		Estimator:   benchEstimator,
		mallocs:     m1.Mallocs - m0.Mallocs,
	}, nil
}
