// Package pathtrace is a from-scratch reproduction of "Path-Based Next
// Trace Prediction" (Quinn Jacobson, Eric Rotenberg, James E. Smith;
// MICRO-30, 1997) — the trace-cache front-end predictor that treats
// traces as the unit of prediction and predicts the next trace from a
// path history of hashed trace identifiers.
//
// The package is a façade over the implementation packages:
//
//   - predictors: the correlated path-based predictor, the hybrid
//     predictor with its secondary table and update filter, the Return
//     History Stack, alternate trace prediction, cost-reduced tables,
//     and unbounded-table idealisations (PredictorConfig.Backend
//     "unbounded");
//   - the substrate the evaluation needs: a MIPS-like ISA (PT32), an
//     assembler, a functional simulator, a trace selector, conventional
//     branch predictors (GSHARE/GAg/bimodal, BTB, RAS, indirect target
//     cache) composing the paper's sequential baseline, a trace cache,
//     and a simplified out-of-order engine for the delayed-update study;
//   - six workloads standing in for the paper's SPECint95 benchmarks;
//   - an experiment harness regenerating every table and figure.
//
// # Quick start
//
//	w, _ := pathtrace.WorkloadByName("compress")
//	p := pathtrace.MustNewPredictor(pathtrace.PredictorConfig{
//		Depth: 7, IndexBits: 16, Hybrid: true, UseRHS: true,
//	})
//	pathtrace.RunWorkload(w, 1_000_000, func(tr *pathtrace.Trace) {
//		p.Predict()
//		p.Update(tr)
//	})
//	fmt.Printf("misprediction: %.2f%%\n", p.Stats().MissRate())
//
// See the examples directory for runnable programs and EXPERIMENTS.md
// for the paper-versus-measured record.
package pathtrace

import (
	"pathtrace/internal/asm"
	"pathtrace/internal/branchpred"
	"pathtrace/internal/cc"
	"pathtrace/internal/charz"
	"pathtrace/internal/engine"
	"pathtrace/internal/experiments"
	"pathtrace/internal/faults"
	"pathtrace/internal/harness"
	"pathtrace/internal/history"
	"pathtrace/internal/metrics"
	"pathtrace/internal/predictor"
	"pathtrace/internal/sim"
	"pathtrace/internal/stream"
	"pathtrace/internal/trace"
	"pathtrace/internal/tracecache"
	"pathtrace/internal/workload"
)

// Core predictor API.
type (
	// Predictor is any next-trace predictor variant (basic correlated,
	// hybrid, unbounded) under the immediate-update protocol.
	Predictor = predictor.NextTracePredictor
	// PredictorConfig selects and sizes a predictor variant: Backend
	// names it ("unbounded" is the §5.2 unbounded-table idealisation,
	// which ignores the table sizes).
	PredictorConfig = predictor.Config
	// HybridPredictor exposes the lower-level speculative API used by
	// the execution engine.
	HybridPredictor = predictor.Hybrid
	// Prediction is a predictor's output for the next trace.
	Prediction = predictor.Prediction
	// PredictorStats are accuracy counters.
	PredictorStats = predictor.Stats
	// DOLC is the Depth-Older-Last-Current index-generation config.
	DOLC = history.DOLC
)

// Trace machinery.
type (
	// Trace is one selected instruction trace.
	Trace = trace.Trace
	// TraceID is the 36-bit trace identifier (start PC + outcomes).
	TraceID = trace.ID
	// HashedID is the 10-bit hashed trace identifier.
	HashedID = trace.HashedID
	// TraceBranch records one control-flow instruction inside a trace.
	TraceBranch = trace.Branch
	// TraceConfig controls trace selection.
	TraceConfig = trace.Config
	// TraceSelector partitions an instruction stream into traces.
	TraceSelector = trace.Selector
)

// Substrate.
type (
	// Program is an assembled PT32 executable image.
	Program = asm.Program
	// CPU is the PT32 functional simulator.
	CPU = sim.CPU
	// Retired is one retired instruction record.
	Retired = sim.Retired
	// Workload is one of the six benchmarks.
	Workload = workload.Workload
	// SequentialBaseline is the idealized multiple-branch baseline.
	SequentialBaseline = branchpred.Sequential
	// SequentialConfig sizes the baseline.
	SequentialConfig = branchpred.SequentialConfig
	// TraceCache models the trace cache fed by the predictor.
	TraceCache = tracecache.Cache
	// TraceCacheConfig sizes the trace cache.
	TraceCacheConfig = tracecache.Config
	// Engine is the delayed-update out-of-order model.
	Engine = engine.Engine
	// EngineConfig sizes the engine.
	EngineConfig = engine.Config
	// EngineResult is an engine run's outcome.
	EngineResult = engine.Result
)

// Experiments.
type (
	// Experiment regenerates one paper table or figure.
	Experiment = experiments.Experiment
	// ExperimentOptions control budget and workload selection.
	ExperimentOptions = experiments.Options
	// ExperimentResult is rendered text plus key metrics.
	ExperimentResult = experiments.Result
)

// Robustness: fault injection and the hardened harness.
type (
	// FaultConfig is a deterministic fault-injection plan.
	FaultConfig = faults.Config
	// HarnessConfig controls a hardened sweep (deadlines, panic
	// recovery, keep-going, per-workload cells).
	HarnessConfig = harness.Config
	// HarnessReport is a sweep's outcome, cell by cell.
	HarnessReport = harness.Report
	// HarnessCell names one (experiment, workload) unit of work.
	HarnessCell = harness.Cell
	// HarnessCellResult is one cell's outcome.
	HarnessCellResult = harness.CellResult
	// RunError is a structured per-cell failure.
	RunError = harness.RunError
)

// Observability.
type (
	// MetricsRegistry holds named counters, gauges and histograms and
	// renders the Prometheus text exposition format. Give one to
	// HarnessConfig.Metrics (or serve it from ntpd's admin listener) to
	// export live counters.
	MetricsRegistry = metrics.Registry
	// MetricsHistogram is a fixed-bucket log-scale latency histogram
	// with exact max tracking and nearest-rank quantile reads.
	MetricsHistogram = metrics.Histogram
	// MetricsLabels are a series' constant labels.
	MetricsLabels = metrics.Labels
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// PredictorBackend describes one registered predictor backend: its
// name (PredictorConfig.Backend), family, constructor and optional
// save/restore codec (see internal/predictor's registry).
type PredictorBackend = predictor.Backend

// PredictorBackends lists every registered backend, sorted by name.
func PredictorBackends() []PredictorBackend { return predictor.Backends() }

// PredictorBackendByName finds a registered backend.
func PredictorBackendByName(name string) (PredictorBackend, bool) {
	return predictor.BackendByName(name)
}

// NewPredictor builds the predictor variant selected by cfg.
func NewPredictor(cfg PredictorConfig) (Predictor, error) { return predictor.New(cfg) }

// MustNewPredictor is NewPredictor for static configurations.
func MustNewPredictor(cfg PredictorConfig) Predictor { return predictor.MustNew(cfg) }

// PredictBatch runs one full Predict/Update round per trace of actuals
// against p, bit-identically to the scalar loop: the paper backends
// run a native batch sweep over their packed tables, other backends
// fall back to scalar rounds. When preds is non-nil (at least
// len(actuals) long), preds[i] receives the prediction made before
// actuals[i] was revealed. Returns the batch's correct-prediction count.
func PredictBatch(p Predictor, actuals []Trace, preds []Prediction) uint64 {
	return predictor.PredictBatch(p, actuals, preds)
}

// NewHybridPredictor builds a hybrid with the speculative lower-level
// API (Lookup/CommitUpdate/Advance).
func NewHybridPredictor(cfg PredictorConfig) (*HybridPredictor, error) {
	return predictor.NewHybrid(cfg)
}

// NewSequentialBaseline builds the paper's idealized sequential
// multiple-branch predictor (§5.1).
func NewSequentialBaseline(cfg SequentialConfig) (*SequentialBaseline, error) {
	return branchpred.NewSequential(cfg)
}

// NewTraceCache builds a trace cache model.
func NewTraceCache(cfg TraceCacheConfig) (*TraceCache, error) { return tracecache.New(cfg) }

// DefaultTraceCacheConfig is the 64KB, 4-way geometry.
func DefaultTraceCacheConfig() TraceCacheConfig { return tracecache.DefaultConfig() }

// NewEngine wraps a hybrid predictor in the delayed-update engine.
func NewEngine(cfg EngineConfig, p *HybridPredictor) (*Engine, error) { return engine.New(cfg, p) }

// DefaultEngineConfig is the paper's 8-wide, 64-entry-window machine.
func DefaultEngineConfig() EngineConfig { return engine.DefaultConfig() }

// Assemble translates PT32 assembly into an executable Program.
func Assemble(source string) (*Program, error) { return asm.Assemble(source) }

// CompilePTC compiles PTC (the small C-like language in internal/cc)
// to PT32 assembly text.
func CompilePTC(source string) (string, error) { return cc.Compile(source) }

// CompilePTCProgram compiles PTC source all the way to an executable
// image.
func CompilePTCProgram(source string) (*Program, error) { return cc.CompileProgram(source) }

// IsProgramImage reports whether the bytes are a serialised program
// image (as written by Program.WriteImage / ptasm -o).
func IsProgramImage(b []byte) bool { return asm.IsImage(b) }

// DecodeProgramImage deserialises a program image.
func DecodeProgramImage(b []byte) (*Program, error) { return asm.DecodeImage(b) }

// NewCPU loads a program into a fresh functional simulator.
func NewCPU(p *Program) (*CPU, error) { return sim.New(p) }

// NewTraceSelector builds a trace selector; emit is invoked per trace
// (the *Trace is reused — copy to retain).
func NewTraceSelector(cfg TraceConfig, emit func(*Trace)) (*TraceSelector, error) {
	return trace.NewSelector(cfg, emit)
}

// DefaultTraceConfig is the paper's 16-instruction / 6-branch selection.
func DefaultTraceConfig() TraceConfig { return trace.DefaultConfig() }

// StandardDOLC returns the index-generation configuration used by the
// evaluation for a given table index width and history depth (Table 3).
func StandardDOLC(indexBits, depth int) DOLC { return history.StandardDOLC(indexBits, depth) }

// Workloads returns every first-class workload: the six benchmarks in
// the paper's order followed by the synthetic adversarial zoo. The
// paper exhibits default to just the six (their tables reproduce the
// paper); naming a zoo member with -workloads pulls it into any
// experiment, the harness, stream capture, and loadgen.
func Workloads() []*Workload { return append(workload.All(), workload.Zoo()...) }

// WorkloadZoo returns the registered synthetic adversarial workloads
// (wild, storm, phase, band-lo, band-hi), sorted by name. Each is
// seed-deterministic and carries its generator parameterization in
// Params, so stream-cache keys never collide across variants.
func WorkloadZoo() []*Workload { return workload.Zoo() }

// WorkloadByName finds a workload by name: a benchmark (compress, gcc,
// go, jpeg, mksim, xlisp) or a zoo member (see WorkloadZoo).
func WorkloadByName(name string) (*Workload, bool) { return workload.ByName(name) }

// RunWorkload simulates a workload for up to limit instructions,
// feeding every selected trace to each consumer. It returns the
// instruction and trace counts.
func RunWorkload(w *Workload, limit uint64, consumers ...func(*Trace)) (instrs, traces uint64, err error) {
	return experiments.StreamTraces(w, limit, consumers...)
}

// Trace-stream capture and replay.
type (
	// TraceStream is a workload's captured selected-trace sequence:
	// simulate once, replay through any number of predictor
	// configurations (allocation-free at steady state).
	TraceStream = stream.Stream
	// TraceStreamKey identifies a captured stream: workload, instruction
	// limit, and trace-selection config.
	TraceStreamKey = stream.Key
	// StreamCache is a keyed, concurrency-safe store of captured
	// streams with single-flight capture per key.
	StreamCache = stream.Cache
	// StreamCacheStats describes a cache's activity and footprint.
	StreamCacheStats = stream.CacheStats
)

// CaptureTraceStream simulates the workload for up to limit
// instructions under the default trace-selection limits and records the
// selected-trace sequence for replay.
func CaptureTraceStream(w *Workload, limit uint64) (*TraceStream, error) {
	return stream.Capture(nil, w, limit, trace.DefaultConfig())
}

// SharedStreamCache returns the process-wide stream cache used by
// every experiment run that does not supply its own — useful for
// inspecting footprint (Stats) or dropping recordings (Reset).
func SharedStreamCache() *StreamCache { return experiments.DefaultStreamCache }

// Workload characterization (internal/charz).
type (
	// CharzConfig parameterizes a predictability analysis: history
	// depths, H2P coverage target, reference predictor.
	CharzConfig = charz.Config
	// CharzReport is the characterization of one stream: entropy,
	// transition classes, per-depth working sets, H2P trace set. It
	// renders as text (Text), JSON (encoding/json), or metrics
	// (Export).
	CharzReport = charz.Report
	// CharzDepthStats characterizes one path-history depth.
	CharzDepthStats = charz.DepthStats
)

// AnalyzeTraceStream characterizes a captured stream: replay through a
// fresh analyzer, report stamped with the stream's identity.
func AnalyzeTraceStream(s *TraceStream, cfg CharzConfig) (*CharzReport, error) {
	return charz.Analyze(nil, s, cfg)
}

// ParseFaultSpec parses an -inject style fault specification such as
// "table:1e-4,history:1e-5,stuck,bits:2".
func ParseFaultSpec(spec string) (FaultConfig, error) { return faults.ParseSpec(spec) }

// RunHarness sweeps experiments as isolated, deadline-bounded cells and
// returns the full report (partial results plus structured failures).
func RunHarness(cfg HarnessConfig, exps []Experiment) (*HarnessReport, error) {
	return harness.Run(cfg, exps)
}

// HangWorkload registers (on first call) and returns the deliberately
// hanging synthetic workload used to exercise harness deadlines.
func HangWorkload() *Workload { return workload.Hang() }

// Experiments lists every registered experiment (tables, figures,
// ablations) in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByName finds an experiment by id (e.g. "fig7").
func ExperimentByName(name string) (Experiment, bool) { return experiments.ByName(name) }

// RunExperiment regenerates one table or figure.
func RunExperiment(name string, opt ExperimentOptions) (*ExperimentResult, error) {
	e, ok := experiments.ByName(name)
	if !ok {
		return nil, errUnknownExperiment(name)
	}
	return e.Run(opt)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "pathtrace: unknown experiment " + string(e)
}
