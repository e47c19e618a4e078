package pathtrace_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"pathtrace"
)

// benchLimit is the per-workload instruction budget used by the
// experiment benchmarks. Each benchmark iteration regenerates the whole
// exhibit at this scale; `ntp -run <id> -len N` reproduces any of them
// at full size.
const benchLimit = 200_000

func benchExperiment(b *testing.B, name string, opt pathtrace.ExperimentOptions) {
	b.Helper()
	if opt.Limit == 0 {
		opt.Limit = benchLimit
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := pathtrace.RunExperiment(name, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Text == "" {
			b.Fatal("empty result")
		}
	}
}

// One benchmark per table and figure in the paper's evaluation.

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", pathtrace.ExperimentOptions{}) }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2", pathtrace.ExperimentOptions{}) }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3", pathtrace.ExperimentOptions{}) }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4", pathtrace.ExperimentOptions{}) }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6", pathtrace.ExperimentOptions{}) }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7", pathtrace.ExperimentOptions{}) }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8", pathtrace.ExperimentOptions{}) }
func BenchmarkCostReduced(b *testing.B) {
	benchExperiment(b, "costreduced", pathtrace.ExperimentOptions{})
}

// BenchmarkHeadline covers the headline exhibit at two grains:
// "experiment" regenerates the whole table per iteration (capture +
// replay through every configuration), while "predict" isolates the
// steady-state replay→predict hot path — one trace through the
// sequential baseline, the bounded hybrid, and the unbounded predictor
// per iteration — which must run allocation-free.
func BenchmarkHeadline(b *testing.B) {
	b.Run("experiment", func(b *testing.B) {
		benchExperiment(b, "headline", pathtrace.ExperimentOptions{})
	})
	b.Run("predict", func(b *testing.B) {
		w, ok := pathtrace.WorkloadByName("go")
		if !ok {
			b.Fatal("workload go missing")
		}
		s, err := pathtrace.CaptureTraceStream(w, benchLimit)
		if err != nil {
			b.Fatal(err)
		}
		seq, err := pathtrace.NewSequentialBaseline(pathtrace.SequentialConfig{})
		if err != nil {
			b.Fatal(err)
		}
		hybrid := pathtrace.MustNewPredictor(pathtrace.PredictorConfig{
			Depth: 7, IndexBits: 16, Hybrid: true, UseRHS: true,
		})
		ub, err := pathtrace.NewUnboundedPredictor(pathtrace.UnboundedConfig{
			Depth: 7, Hybrid: true, UseRHS: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		// One full warm pass so the unbounded predictor's maps hold every
		// path before measurement: steady state is hit-and-update.
		step := func(tr *pathtrace.Trace) {
			seq.ObserveTrace(tr)
			hybrid.Predict()
			hybrid.Update(tr)
			ub.Predict()
			ub.Update(tr)
		}
		if _, _, err := s.Replay(nil, step); err != nil {
			b.Fatal(err)
		}
		n := s.Len()
		var tr pathtrace.Trace
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.At(i%n, &tr)
			step(&tr)
		}
	})
}

// Ablation benchmarks (DESIGN.md §5).

func BenchmarkAblationCounter(b *testing.B) {
	benchExperiment(b, "ablation-counter", pathtrace.ExperimentOptions{Workloads: []string{"compress", "go"}})
}
func BenchmarkAblationHybrid(b *testing.B) {
	benchExperiment(b, "ablation-hybrid", pathtrace.ExperimentOptions{Workloads: []string{"compress", "go"}})
}
func BenchmarkAblationRHS(b *testing.B) {
	benchExperiment(b, "ablation-rhs", pathtrace.ExperimentOptions{Workloads: []string{"xlisp", "go"}})
}
func BenchmarkAblationDOLC(b *testing.B) {
	benchExperiment(b, "ablation-dolc", pathtrace.ExperimentOptions{Workloads: []string{"gcc"}})
}
func BenchmarkAblationSelect(b *testing.B) {
	benchExperiment(b, "ablation-select", pathtrace.ExperimentOptions{Workloads: []string{"compress"}})
}
func BenchmarkAblationHash(b *testing.B) {
	benchExperiment(b, "ablation-hash", pathtrace.ExperimentOptions{Workloads: []string{"compress"}})
}

// Component microbenchmarks.

// benchTraces returns a reusable trace stream captured once.
var benchTraces = func() func(b *testing.B) []pathtrace.Trace {
	var once sync.Once
	var traces []pathtrace.Trace
	return func(b *testing.B) []pathtrace.Trace {
		once.Do(func() {
			w, ok := pathtrace.WorkloadByName("go")
			if !ok {
				return
			}
			_, _, err := pathtrace.RunWorkload(w, 500_000, func(tr *pathtrace.Trace) {
				cp := *tr
				cp.Branches = append([]pathtrace.TraceBranch(nil), tr.Branches...)
				traces = append(traces, cp)
			})
			if err != nil {
				traces = nil
			}
		})
		if len(traces) == 0 {
			b.Fatal("failed to capture trace stream")
		}
		return traces
	}
}()

// BenchmarkSimulator times the interpreter alone. Each iteration runs a
// fresh CPU for 100K instructions; building it (an 8 MB memory image)
// happens with the timer stopped, so Minstr/s measures execution only.
func BenchmarkSimulator(b *testing.B) {
	w, _ := pathtrace.WorkloadByName("compress")
	prog := w.Program()
	b.ReportAllocs()
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cpu, err := pathtrace.NewCPU(prog)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := cpu.Run(100_000, nil); err != nil {
			b.Fatal(err)
		}
		retired += cpu.InstrCount
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// captureLimit is BenchmarkCapture's per-workload instruction budget:
// the stream length the benchmark workloads and a first -len 2000000
// sweep capture.
const captureLimit = 2_000_000

// BenchmarkCapture records each benchmark's captureLimit-instruction
// trace stream, the set-up cost of every sweep, load generator run and
// benchmark workload. ns/instr is the cost per simulated instruction.
// alloc-B/stream-B is the bytes allocated per byte of the finished
// stream (Stream.SizeBytes): the simulator's memory image, the capture
// chunks and the final arrays. CI fails it above 3; a recording that
// regrows its arrays by append costs about 5.4.
func BenchmarkCapture(b *testing.B) {
	for _, name := range []string{"compress", "gcc", "go", "jpeg", "mksim", "xlisp"} {
		b.Run(name, func(b *testing.B) {
			w, ok := pathtrace.WorkloadByName(name)
			if !ok {
				b.Fatalf("workload %s missing", name)
			}
			if _, err := w.ProgramErr(); err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var instrs uint64
			var size int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := pathtrace.CaptureTraceStream(w, captureLimit)
				if err != nil {
					b.Fatal(err)
				}
				instrs += s.Instrs()
				size += s.SizeBytes()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(size), "alloc-B/stream-B")
		})
	}
}

func BenchmarkTraceSelection(b *testing.B) {
	w, _ := pathtrace.WorkloadByName("compress")
	prog := w.Program()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, err := pathtrace.NewCPU(prog)
		if err != nil {
			b.Fatal(err)
		}
		sel, err := pathtrace.NewTraceSelector(pathtrace.DefaultTraceConfig(), func(*pathtrace.Trace) {})
		if err != nil {
			b.Fatal(err)
		}
		if err := cpu.Run(100_000, sel.Feed); err != nil {
			b.Fatal(err)
		}
		sel.Flush()
	}
}

func BenchmarkHybridPredictor(b *testing.B) {
	traces := benchTraces(b)
	p := pathtrace.MustNewPredictor(pathtrace.PredictorConfig{
		Depth: 7, IndexBits: 16, Hybrid: true, UseRHS: true,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := &traces[i%len(traces)]
		p.Predict()
		p.Update(tr)
	}
}

// BenchmarkPredictBatch measures the batched round loop at the batch
// sizes the serving layer actually sends, for the hybrid (batchN) and
// the basic predictor (batchN_basic). b.N counts traces, so ns/op is
// per trace and directly comparable with BenchmarkHybridPredictor's and
// BenchmarkBasicPredictor's scalar rounds; the loop must hold 0
// allocs/op at every size.
func BenchmarkPredictBatch(b *testing.B) {
	traces := benchTraces(b)
	for _, c := range []struct {
		suffix string
		cfg    pathtrace.PredictorConfig
	}{
		{"", pathtrace.PredictorConfig{Depth: 7, IndexBits: 16, Hybrid: true, UseRHS: true}},
		{"_basic", pathtrace.PredictorConfig{Depth: 7, IndexBits: 16}},
	} {
		for _, size := range []int{1, 16, 64, 256} {
			b.Run(fmt.Sprintf("batch%d%s", size, c.suffix), func(b *testing.B) {
				benchPredictBatch(b, traces, c.cfg, size)
			})
		}
	}
}

func benchPredictBatch(b *testing.B, traces []pathtrace.Trace, cfg pathtrace.PredictorConfig, size int) {
	p := pathtrace.MustNewPredictor(cfg)
	preds := make([]pathtrace.Prediction, size)
	wrap := len(traces) - size
	if wrap <= 0 {
		b.Fatalf("trace stream too short for batch %d", size)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += size {
		off := i % wrap
		pathtrace.PredictBatch(p, traces[off:off+size], preds)
	}
}

func BenchmarkBasicPredictor(b *testing.B) {
	traces := benchTraces(b)
	p := pathtrace.MustNewPredictor(pathtrace.PredictorConfig{Depth: 7, IndexBits: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := &traces[i%len(traces)]
		p.Predict()
		p.Update(tr)
	}
}

func BenchmarkUnboundedPredictor(b *testing.B) {
	traces := benchTraces(b)
	p, err := pathtrace.NewUnboundedPredictor(pathtrace.UnboundedConfig{
		Depth: 7, Hybrid: true, UseRHS: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := &traces[i%len(traces)]
		p.Predict()
		p.Update(tr)
	}
}

func BenchmarkSequentialBaseline(b *testing.B) {
	traces := benchTraces(b)
	seq, err := pathtrace.NewSequentialBaseline(pathtrace.SequentialConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.ObserveTrace(&traces[i%len(traces)])
	}
}

func BenchmarkTraceCache(b *testing.B) {
	traces := benchTraces(b)
	tc, err := pathtrace.NewTraceCache(pathtrace.DefaultTraceCacheConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Access(traces[i%len(traces)].ID)
	}
}

func BenchmarkEngineDelayedUpdates(b *testing.B) {
	traces := benchTraces(b)
	hp, err := pathtrace.NewHybridPredictor(pathtrace.PredictorConfig{
		Depth: 7, IndexBits: 16, Hybrid: true, UseRHS: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := pathtrace.NewEngine(pathtrace.DefaultEngineConfig(), hp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Feed(&traces[i%len(traces)])
	}
}

func BenchmarkTraceHash(b *testing.B) {
	traces := benchTraces(b)
	var sink pathtrace.HashedID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= traces[i%len(traces)].ID.Hash()
	}
	_ = sink
}

func BenchmarkAssembler(b *testing.B) {
	w, _ := pathtrace.WorkloadByName("gcc")
	_ = w // force registration
	src := benchGCCSource(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pathtrace.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGCCSource(b *testing.B) string {
	// A modest synthetic program; assembling the real gcc workload every
	// iteration would dominate the benchmark with I/O-free but huge text.
	return `
        .data
v:      .word 1, 2, 3, 4
        .text
main:   li   t0, 100
loop:   lw   t1, 0(gp)
        add  t2, t2, t1
        addi t0, t0, -1
        bnez t0, loop
        out  t2
        halt
`
}

func BenchmarkMultiBranch(b *testing.B) {
	benchExperiment(b, "multibranch", pathtrace.ExperimentOptions{})
}

func BenchmarkFrontend(b *testing.B) {
	benchExperiment(b, "frontend", pathtrace.ExperimentOptions{Workloads: []string{"mksim"}})
}

func BenchmarkConfidence(b *testing.B) {
	benchExperiment(b, "confidence", pathtrace.ExperimentOptions{Workloads: []string{"mksim"}})
}

func BenchmarkRealistic(b *testing.B) {
	benchExperiment(b, "realistic", pathtrace.ExperimentOptions{Workloads: []string{"gcc"}})
}

func BenchmarkTraceCacheSweep(b *testing.B) {
	benchExperiment(b, "ablation-tracecache", pathtrace.ExperimentOptions{Workloads: []string{"gcc"}})
}
