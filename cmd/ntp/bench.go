package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"pathtrace"
)

// benchRecord is one benchmarked unit in the BENCH_<date>.json output.
type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
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
// loop the serving layer actually runs — which is stable enough (0
// allocs, pure CPU) to gate on across machines. The loop runs three
// times and the best ns/op counts, so one scheduling hiccup cannot fail
// the gate; any allocation fails it regardless of timing. Exit 1 =
// regression, exit 2 = unusable baseline (including one without a
// predict-batch record).
func runBenchDiff(path string, limit uint64, maxRegressPct float64) int {
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

	best := benchRecord{NsPerOp: -1}
	for round := 0; round < 3; round++ {
		rec, err := benchPredictBatch(limit)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ntp: benchdiff: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "ntp: benchdiff round %d: %12.0f ns/op %8d allocs/op\n",
			round+1, rec.NsPerOp, rec.AllocsPerOp)
		if best.NsPerOp < 0 || rec.NsPerOp < best.NsPerOp {
			best = rec
		}
	}

	delta := 100 * (best.NsPerOp - old.NsPerOp) / old.NsPerOp
	fmt.Printf("%s: baseline %.0f ns/op (%s), now %.0f ns/op, delta %+.1f%% (limit %.0f%%)\n",
		name, old.NsPerOp, base.Date, best.NsPerOp, delta, maxRegressPct)
	if best.AllocsPerOp != 0 {
		fmt.Printf("FAIL: %s allocates (%d allocs/op, want 0)\n", name, best.AllocsPerOp)
		return 1
	}
	if delta > maxRegressPct {
		fmt.Printf("FAIL: %s regressed %.1f%% > %.0f%%\n", name, delta, maxRegressPct)
		return 1
	}
	fmt.Println("OK")
	return 0
}

// benchPredictBatch measures the batched predict+update hot path at the
// serving layer's default batch size (64). b.N counts traces, so ns/op
// is per trace. This is the record the benchdiff gate rides on; it must
// report zero allocations per operation.
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
	pathtrace.PredictBatch(hybrid, traces[:batch], preds) // warm pass
	wrap := n - batch
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += batch {
			off := i % wrap
			pathtrace.PredictBatch(hybrid, traces[off:off+batch], preds)
		}
	})
	return benchRecord{
		Name:        "predict-batch",
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}, nil
}
