// Package predictor implements the path-based next trace predictors of
// "Path-Based Next Trace Prediction" (Jacobson, Rotenberg, Smith;
// MICRO-30, 1997): the basic correlated predictor (§3.2), the hybrid
// predictor with a secondary table (§3.3), the Return History Stack
// enhancement (§3.4), unbounded-table variants (§5.2), the cost-reduced
// predictor that stores hashed identifiers (§5.5), and alternate trace
// prediction (§6).
//
// The paper's predictors are one kernel, Hybrid: the basic predictor is
// Hybrid with Config.Hybrid unset (no entry tags, no secondary table,
// no RHS), and the cost-reduced predictor is Hybrid storing hashed
// identifiers. The unbounded variants (Unbounded) select and train the
// same packed entries by the same routines, over the same path history
// and RHS code, in exact-match tables; TAGE is a separate design.
package predictor

import (
	"fmt"

	"pathtrace/internal/faults"
	"pathtrace/internal/history"
	"pathtrace/internal/trace"
)

// Prediction is a predictor's output for the next trace.
type Prediction struct {
	ID    trace.ID // predicted next trace identifier
	Valid bool     // false when the predictor has nothing for this path

	// Alt is the alternate prediction (§6), when the source entry has
	// one. It is advisory: recovery hardware may fetch it when the
	// primary is wrong.
	Alt      trace.ID
	AltValid bool

	// Hashed is the predicted trace-cache index. For the cost-reduced
	// predictor (§5.5) this is all that is stored; for full predictors
	// it is simply ID.Hash().
	Hashed trace.HashedID

	// FromSecondary reports that the hybrid's secondary predictor
	// supplied the prediction.
	FromSecondary bool
}

// NextTracePredictor is the interface shared by every predictor
// variant. The call protocol is strict alternation:
//
//	for each completed trace t:
//	    p := pred.Predict()   // predict the NEXT trace
//	    ... compare p against the trace that actually follows ...
//	    pred.Update(actual)   // reveal the actual trace
//
// Update both trains the tables and advances the path history, so the
// next Predict sees the new path. This is the paper's "immediate
// update" regime (§4.1); package engine models delayed updates using
// the lower-level Hybrid API.
type NextTracePredictor interface {
	Predict() Prediction
	Update(actual *trace.Trace)
	Stats() Stats
}

// Stats accumulates accuracy counters inside a predictor.
type Stats struct {
	Predictions   uint64
	Correct       uint64
	Cold          uint64 // predictions with no valid entry
	FromSecondary uint64 // hybrid: predictions supplied by the secondary
	AltCorrect    uint64 // primary wrong but alternate right
	AltPresent    uint64 // primary wrong and an alternate existed
}

// Mispredictions returns Predictions - Correct.
func (s Stats) Mispredictions() uint64 { return s.Predictions - s.Correct }

// Equal reports whether two snapshots hold identical counters. Stats
// is comparable, so this is ==; the method exists to make the serving
// layer's bit-identical-stats assertion read as what it is.
func (s Stats) Equal(o Stats) bool { return s == o }

// MissRate returns the misprediction rate in percent.
func (s Stats) MissRate() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return 100 * float64(s.Mispredictions()) / float64(s.Predictions)
}

// AltMissRate returns the rate at which BOTH the primary and alternate
// predictions were wrong, in percent (§6, Figure 8).
func (s Stats) AltMissRate() float64 {
	if s.Predictions == 0 {
		return 0
	}
	both := s.Mispredictions() - s.AltCorrect
	return 100 * float64(both) / float64(s.Predictions)
}

// Event is a bitmask describing one Predict/Update round, delivered to
// an attached Recorder after the tables have been trained.
type Event uint8

const (
	// EvCorrect: the prediction matched the actual trace.
	EvCorrect Event = 1 << iota
	// EvCold: the path had no valid entry (the prediction was invalid).
	EvCold
	// EvFromSecondary: the hybrid's secondary table supplied the
	// prediction.
	EvFromSecondary
	// EvReplaced: training displaced a trained (valid) entry's value in
	// the correlated or secondary table — the table-churn signal.
	EvReplaced
)

// Recorder receives one Event per Predict/Update round, for live
// instrumentation of served predictors (hit/miss/cold/replacement
// counters). The hot path guards the single interface call with a nil
// check, so an unset Recorder costs one predicted branch and the
// attached case must not allocate. Record runs on the goroutine driving
// the predictor. A Recorder shared only by predictors that are never
// driven at the same time (a serving shard's sessions, under the shard
// lock) may tally in plain integers and publish the tallies in bulk;
// one shared by predictors driven concurrently must synchronise, e.g.
// with atomic counters. Stats() remains the authoritative accuracy record; a
// Recorder only mirrors it into an external metrics sink without
// snapshotting.
type Recorder interface {
	Record(Event)
}

// Config selects and sizes a predictor variant.
type Config struct {
	// Backend selects a registered predictor backend by name ("basic",
	// "hybrid", "costreduced", "unbounded", "tage"). Empty keeps the
	// legacy selection: "hybrid" when Hybrid is set, else "basic".
	Backend string

	// Depth is the path history depth: the number of traces besides the
	// most recent whose identifiers feed the index (0..7).
	Depth int

	// IndexBits sizes the correlated table at 1<<IndexBits entries.
	IndexBits int

	// DOLC overrides the index-generation configuration; when zero it
	// defaults to history.StandardDOLC(IndexBits, Depth).
	DOLC history.DOLC

	// Hybrid enables the secondary predictor and entry tags (§3.3).
	Hybrid bool

	// SecondaryBits sizes the secondary table (default 10 -> 1K entries).
	SecondaryBits int

	// UseRHS enables the Return History Stack (§3.4).
	UseRHS bool

	// RHSDepth bounds the RHS (default history.DefaultRHSDepth).
	RHSDepth int

	// TagBits is the width of the correlated entry tag (default 10).
	TagBits int

	// CostReduced stores only the hashed trace identifier in correlated
	// and secondary entries (§5.5).
	CostReduced bool

	// Counter policies. Defaults follow the paper: the correlated
	// counter is 2-bit, increment-by-1 / decrement-by-2; the secondary
	// counter is 4-bit and clears on a miss (decrement-by-15), so the
	// saturated-secondary override only ever applies to traces with a
	// truly dominant single successor.
	CounterBits    int
	CounterInc     int
	CounterDec     int
	SecCounterBits int
	SecCounterDec  int

	// SecondaryFilter applies the aliasing-pressure reduction: when the
	// secondary counter is saturated its prediction is used, and when
	// correct the correlated table is not updated (§3.3). Default true
	// for hybrids; settable to false for ablation.
	SecondaryFilter *bool

	// Recorder, when non-nil, receives one Event per Predict/Update
	// round. Nil (the default) is free on the hot path.
	Recorder Recorder

	// Faults, when non-nil, injects deterministic faults into the
	// prediction tables, the path history register and (via stuck-at-
	// zero mode) the counters. Wrong table contents can only cost
	// accuracy, never correctness — the predictor is a hint structure —
	// so injection is safe to enable on any run. Each predictor needs
	// its own injector; injectors are not concurrency-safe.
	Faults *faults.Injector
}

// The largest table sizes a Config may ask for, in index bits.
const (
	maxIndexBits     = 26
	maxSecondaryBits = 20
)

// withDefaults materialises unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.Depth < 0 || c.Depth > history.MaxSize-1 {
		return c, fmt.Errorf("predictor: depth %d outside [0, %d]", c.Depth, history.MaxSize-1)
	}
	if c.IndexBits == 0 {
		c.IndexBits = 16
	}
	if c.IndexBits < 1 || c.IndexBits > maxIndexBits {
		return c, fmt.Errorf("predictor: IndexBits %d outside [1, %d]", c.IndexBits, maxIndexBits)
	}
	if c.DOLC == (history.DOLC{}) {
		c.DOLC = history.StandardDOLC(c.IndexBits, c.Depth)
	}
	if c.DOLC.Depth != c.Depth || c.DOLC.Index != c.IndexBits {
		return c, fmt.Errorf("predictor: DOLC %v inconsistent with depth %d / index %d",
			c.DOLC, c.Depth, c.IndexBits)
	}
	if err := c.DOLC.Validate(); err != nil {
		return c, err
	}
	if c.SecondaryBits == 0 {
		c.SecondaryBits = 10
	}
	if c.SecondaryBits < 1 || c.SecondaryBits > maxSecondaryBits {
		return c, fmt.Errorf("predictor: SecondaryBits %d outside [1, %d]", c.SecondaryBits, maxSecondaryBits)
	}
	if c.RHSDepth == 0 {
		c.RHSDepth = history.DefaultRHSDepth
	}
	if c.TagBits == 0 {
		c.TagBits = 10
	}
	if c.TagBits < 1 || c.TagBits > 16 {
		return c, fmt.Errorf("predictor: TagBits %d outside [1, 16]", c.TagBits)
	}
	if c.CounterBits == 0 {
		c.CounterBits = 2
	}
	if c.CounterInc == 0 {
		c.CounterInc = 1
	}
	if c.CounterDec == 0 {
		c.CounterDec = 2
	}
	if c.SecCounterBits == 0 {
		c.SecCounterBits = 4
	}
	if c.SecCounterDec == 0 {
		c.SecCounterDec = 15
	}
	// Counters live in 8 bits and the RHS depth is saved as a u16, so
	// out-of-range values are refused here rather than wrapping later.
	for _, f := range [...]struct {
		name      string
		v, lo, hi int
	}{
		{"CounterBits", c.CounterBits, 1, 8}, {"SecCounterBits", c.SecCounterBits, 1, 8},
		{"CounterInc", c.CounterInc, 1, 255}, {"CounterDec", c.CounterDec, 1, 255},
		{"SecCounterDec", c.SecCounterDec, 1, 255}, {"RHSDepth", c.RHSDepth, 1, 0xFFFF},
	} {
		if f.v < f.lo || f.v > f.hi {
			return c, fmt.Errorf("predictor: %s %d outside [%d, %d]", f.name, f.v, f.lo, f.hi)
		}
	}
	if c.SecondaryFilter == nil {
		t := true
		c.SecondaryFilter = &t
	}
	return c, nil
}

// New constructs the predictor variant selected by cfg, resolved
// through the backend registry: cfg.Backend by name, or the legacy
// Hybrid-flag selection between the paper backends when unset.
func New(cfg Config) (NextTracePredictor, error) {
	b, err := ResolveBackend(cfg)
	if err != nil {
		return nil, err
	}
	return b.New(cfg)
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) NextTracePredictor {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func boolPtr(b bool) *bool { return &b }

// NoFilter is a convenience for ablation configs.
func NoFilter() *bool { return boolPtr(false) }
