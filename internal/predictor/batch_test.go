package predictor

import (
	"bytes"
	"testing"

	"pathtrace/internal/faults"
	"pathtrace/internal/stream"
	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

// captureTraces simulates a workload prefix and materialises its trace
// stream into a flat slice the batch tests can slice up freely.
func captureTraces(t *testing.T, name string, limit uint64) []trace.Trace {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	s, err := stream.Capture(nil, w, limit, trace.DefaultConfig())
	if err != nil {
		t.Fatalf("capture %s: %v", name, err)
	}
	out := make([]trace.Trace, s.Len())
	for i := range out {
		s.At(i, &out[i])
	}
	return out
}

// runScalar drives p through the strict Predict/Update alternation and
// returns every prediction made.
func runScalar(p NextTracePredictor, traces []trace.Trace) []Prediction {
	preds := make([]Prediction, len(traces))
	for i := range traces {
		preds[i] = p.Predict()
		p.Update(&traces[i])
	}
	return preds
}

// runBatched drives p through the same rounds via the package batch
// helpers in uneven chunks (batchSize should not divide len(traces), so
// the final short batch is exercised too).
func runBatched(p NextTracePredictor, traces []trace.Trace, batchSize int) []Prediction {
	preds := make([]Prediction, len(traces))
	for off := 0; off < len(traces); off += batchSize {
		end := off + batchSize
		if end > len(traces) {
			end = len(traces)
		}
		PredictBatch(p, traces[off:end], preds[off:end])
	}
	return preds
}

// checkIdentical asserts the scalar and batched runs agree on every
// prediction, the stats counters, and (when the backend supports
// checkpointing) the entire saved table state.
func checkIdentical(t *testing.T, label string, sp, bp NextTracePredictor, sPreds, bPreds []Prediction) {
	t.Helper()
	for i := range sPreds {
		if sPreds[i] != bPreds[i] {
			t.Fatalf("%s: prediction %d diverged: scalar %+v batch %+v", label, i, sPreds[i], bPreds[i])
		}
	}
	if sp.Stats() != bp.Stats() {
		t.Fatalf("%s: stats diverged:\nscalar %+v\nbatch  %+v", label, sp.Stats(), bp.Stats())
	}
	sSt, sErr := paperAppend(nil, sp)
	bSt, bErr := paperAppend(nil, bp)
	if (sErr == nil) != (bErr == nil) {
		t.Fatalf("%s: Save support diverged: scalar err %v, batch err %v", label, sErr, bErr)
	}
	if sErr != nil {
		return // backend without checkpointing: stats + preds is the contract
	}
	if !bytes.Equal(sSt, bSt) {
		t.Fatalf("%s: saved table state diverged after identical rounds", label)
	}
}

// TestBatchBitIdenticalScalar is the cross-check behind the "thin
// wrappers over the batch path" claim: for every workload and the three
// paper backends, N scalar rounds and the same N rounds run through
// PredictBatch (odd-sized chunks) must be bit-identical — predictions,
// counters, and full table contents.
func TestBatchBitIdenticalScalar(t *testing.T) {
	configs := []struct {
		label string
		cfg   Config
	}{
		{"hybrid", Config{Depth: 5, IndexBits: 12, Hybrid: true, UseRHS: true}},
		{"basic", Config{Depth: 5, IndexBits: 12}},
		{"costreduced", Config{Depth: 5, IndexBits: 12, CostReduced: true}},
	}
	for _, name := range workload.Names() {
		traces := captureTraces(t, name, 20_000)
		if len(traces) < 64 {
			t.Fatalf("%s: capture too short (%d traces) to exercise batching", name, len(traces))
		}
		for _, c := range configs {
			label := name + "/" + c.label
			sp, bp := MustNew(c.cfg), MustNew(c.cfg)
			sPreds := runScalar(sp, traces)
			bPreds := runBatched(bp, traces, 17)
			checkIdentical(t, label, sp, bp, sPreds, bPreds)
		}
	}
}

// TestBatchBitIdenticalUnderFaults repeats the cross-check with
// deterministic fault injection live: the injector advances once per
// round in both regimes, so the fault streams — and therefore the
// corrupted tables — must line up exactly. The basic configs draw no
// secondary faults and have no tags to corrupt; the stuck-at-zero one
// also clears every counter it writes.
func TestBatchBitIdenticalUnderFaults(t *testing.T) {
	configs := []struct {
		label, spec string
		cfg         Config
	}{
		{"hybrid+faults", "table:1e-3,sec:1e-3,history:1e-4,bits:2",
			Config{Depth: 5, IndexBits: 12, Hybrid: true, UseRHS: true}},
		{"basic+faults", "table:1e-2,sec:1e-2,history:1e-3,bits:2",
			Config{Depth: 5, IndexBits: 12}},
		{"basic-costreduced+stuckzero", "table:1e-2,history:1e-3,bits:2,stuck",
			Config{Backend: "basic", Depth: 5, IndexBits: 12, CostReduced: true}},
	}
	for _, name := range []string{"go", "gcc"} {
		traces := captureTraces(t, name, 20_000)
		for _, c := range configs {
			fcfg, err := faults.ParseSpec(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			fcfg.Seed = 42
			mk := func() NextTracePredictor {
				cfg := c.cfg
				cfg.Faults = faults.New(fcfg) // fresh injector per predictor
				return MustNew(cfg)
			}
			sp, bp := mk(), mk()
			sPreds := runScalar(sp, traces)
			bPreds := runBatched(bp, traces, 17)
			checkIdentical(t, name+"/"+c.label, sp, bp, sPreds, bPreds)
		}
	}
}

// TestBatchGenericFallback checks the scalar-loop fallback used for
// backends without a native batch loop (tage) against plain scalar
// driving, and that the helpers report the batch's correct count.
func TestBatchGenericFallback(t *testing.T) {
	traces := captureTraces(t, "go", 20_000)
	cfg := Config{Backend: "tage", Depth: 5, IndexBits: 12}
	sp, bp := MustNew(cfg), MustNew(cfg)
	if _, ok := bp.(BatchPredictor); ok {
		t.Fatalf("tage unexpectedly implements BatchPredictor; pick another fallback backend for this test")
	}
	sPreds := runScalar(sp, traces)
	bPreds := make([]Prediction, len(traces))
	correct := PredictBatch(bp, traces, bPreds)
	for i := range sPreds {
		if sPreds[i] != bPreds[i] {
			t.Fatalf("fallback prediction %d diverged", i)
		}
	}
	if sp.Stats() != bp.Stats() {
		t.Fatalf("fallback stats diverged:\nscalar %+v\nbatch  %+v", sp.Stats(), bp.Stats())
	}
	if want := bp.Stats().Correct; correct != want {
		t.Fatalf("fallback correct count = %d, want %d", correct, want)
	}
}

// TestNativeBatchImplementations pins down which backends carry the
// native loop: the paper predictors must, so the serving hot path never
// silently degrades to per-round interface dispatch.
func TestNativeBatchImplementations(t *testing.T) {
	for _, c := range []struct {
		label string
		cfg   Config
	}{
		{"hybrid", Config{Hybrid: true}},
		{"basic", Config{}},
		{"costreduced", Config{CostReduced: true}},
	} {
		if _, ok := MustNew(c.cfg).(BatchPredictor); !ok {
			t.Errorf("%s: no native BatchPredictor implementation", c.label)
		}
	}
}
