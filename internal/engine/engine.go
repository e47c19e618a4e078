// Package engine models the execution back end needed for the paper's
// delayed-update study (§5.4, Table 4). Under "real updates", the path
// history register is updated speculatively with each prediction (and
// backed up when a prediction turns out wrong), while the prediction
// tables are updated only when a trace's last instruction retires.
//
// The model is trace-granular: an N-wide machine with a bounded
// in-flight instruction window fetches one trace per cycle, executes
// each trace with a fixed latency after issue, and retires in order —
// the paper's 8-wide, 64-entry-window, out-of-order engine reduced to
// the features that determine *when* predictor state changes relative
// to when predictions are made. Wrong-path fetches make no table
// updates and their history damage is repaired by checkpoint restore,
// so they are modelled as fetch stalls until the misprediction
// resolves.
package engine

import (
	"fmt"

	"pathtrace/internal/cache"
	"pathtrace/internal/predictor"
	"pathtrace/internal/trace"
	"pathtrace/internal/tracecache"
)

// Config describes the machine.
type Config struct {
	// Width is the fetch/issue width in instructions per cycle (8).
	Width int
	// Window is the in-flight instruction window (64).
	Window int
	// ExecLatency is the delay in cycles from the end of issue to
	// completion (branch resolution) of a trace.
	ExecLatency int

	// TraceCache, when non-nil, models trace storage: a fetch that
	// misses spends TCMissPenalty extra cycles while the trace is built
	// from the instruction cache.
	TraceCache    *tracecache.Cache
	TCMissPenalty int // default 3 when a trace cache is attached

	// ICache, when non-nil (with a TraceCache), models the instruction
	// cache consulted when a trace must be built on a trace-cache miss;
	// each line miss adds ICacheMissPenalty cycles to the fetch.
	ICache            *cache.Cache
	ICacheMissPenalty int // default 3

	// DCache, when non-nil, models the data cache: each missing data
	// reference in a trace adds DCacheMissPenalty cycles to the trace's
	// completion.
	DCache            *cache.Cache
	DCacheMissPenalty int // default 6

	// AltRecovery enables §6's motivation for the alternate prediction:
	// when the primary prediction is wrong but the alternate names the
	// actual trace, the front end redirects to the alternate after
	// AltPenalty cycles instead of waiting for full branch resolution.
	AltRecovery bool
	AltPenalty  int // default 2

	// Oracle makes every prediction correct (and still performs table
	// updates), isolating the machine's bandwidth ceiling.
	Oracle bool
}

// DefaultConfig matches the paper's engine parameters.
func DefaultConfig() Config { return Config{Width: 8, Window: 64, ExecLatency: 4} }

func (c Config) validate() error {
	if c.Width < 1 || c.Window < 1 || c.ExecLatency < 0 {
		return fmt.Errorf("engine: invalid config %+v", c)
	}
	if c.TCMissPenalty < 0 || c.AltPenalty < 0 ||
		c.ICacheMissPenalty < 0 || c.DCacheMissPenalty < 0 {
		return fmt.Errorf("engine: negative penalty in config")
	}
	return nil
}

// Result reports the outcome of a run.
type Result struct {
	Stats  predictor.Stats
	Cycles uint64
	Traces uint64
	Instrs uint64

	TCHits        uint64
	TCMisses      uint64
	AltRecoveries uint64
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// inflight is one fetched trace awaiting retirement.
type inflight struct {
	tok    predictor.Token
	tr     trace.Trace // copy without Branches
	retire uint64
	len    int
}

// Engine drives a hybrid predictor with speculative history and
// retirement-time table updates.
type Engine struct {
	cfg  Config
	pred *predictor.Hybrid

	cycle      uint64
	lastRetire uint64

	// window is a ring buffer of fetched-but-not-retired traces (in
	// order): head indexes the oldest, count is the live length. A ring
	// (rather than window = window[1:] per retirement) keeps the backing
	// array stable once warm, so steady-state Feed allocates nothing.
	window    []inflight
	head      int
	count     int
	occupancy int // instructions in the window

	// Speculation state for the prediction of the NEXT trace.
	next    predictor.Prediction
	nextTok predictor.Token
	started bool

	res Result
}

// New creates an engine around a hybrid predictor.
func New(cfg Config, p *predictor.Hybrid) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("engine: nil predictor")
	}
	if cfg.TraceCache != nil && cfg.TCMissPenalty == 0 {
		cfg.TCMissPenalty = 3
	}
	if cfg.AltRecovery && cfg.AltPenalty == 0 {
		cfg.AltPenalty = 2
	}
	if cfg.ICache != nil && cfg.ICacheMissPenalty == 0 {
		cfg.ICacheMissPenalty = 3
	}
	if cfg.DCache != nil && cfg.DCacheMissPenalty == 0 {
		cfg.DCacheMissPenalty = 6
	}
	return &Engine{cfg: cfg, pred: p}, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config, p *predictor.Hybrid) *Engine {
	e, err := New(cfg, p)
	if err != nil {
		panic(err)
	}
	return e
}

// drainRetirements applies table updates for every trace whose retire
// cycle has passed.
func (e *Engine) drainRetirements(now uint64) {
	for e.count > 0 && e.window[e.head].retire <= now {
		f := &e.window[e.head]
		e.occupancy -= f.len
		e.pred.CommitUpdate(&f.tok, &f.tr)
		e.res.Traces++
		e.res.Instrs += uint64(f.tr.Len)
		*f = inflight{} // drop references until the slot is reused
		e.head = (e.head + 1) % len(e.window)
		e.count--
	}
}

// pushInflight appends to the ring, growing (and linearising) the
// backing array only when full — amortised to zero once the window has
// reached its steady-state depth.
func (e *Engine) pushInflight(f inflight) {
	if e.count == len(e.window) {
		grown := make([]inflight, 2*len(e.window)+4)
		for i := 0; i < e.count; i++ {
			grown[i] = e.window[(e.head+i)%len(e.window)]
		}
		e.window = grown
		e.head = 0
	}
	e.window[(e.head+e.count)%len(e.window)] = f
	e.count++
}

// Feed processes the next trace of the actual (correct-path) stream.
func (e *Engine) Feed(actual *trace.Trace) {
	if !e.started {
		// Initial prediction from the reset history.
		_, e.nextTok = e.pred.Lookup()
		e.next = e.nextTok.Pred
		e.started = true
	}

	// Stall fetch until the window has room for this trace.
	for e.occupancy+actual.Len > e.cfg.Window && e.count > 0 {
		headRetire := e.window[e.head].retire
		if e.cycle < headRetire {
			e.cycle = headRetire
		}
		e.drainRetirements(headRetire)
	}
	e.drainRetirements(e.cycle)

	fetchCycle := e.cycle
	// Trace cache: a miss stalls fetch while the trace is built from
	// the instruction cache (whose own line misses stall further).
	if e.cfg.TraceCache != nil {
		if e.cfg.TraceCache.Access(actual.ID) {
			e.res.TCHits++
		} else {
			e.res.TCMisses++
			fetchCycle += uint64(e.cfg.TCMissPenalty)
			if e.cfg.ICache != nil {
				const lineBytes = 32
				start := actual.StartPC &^ (lineBytes - 1)
				end := actual.StartPC + uint32(4*actual.Len)
				for a := start; a < end; a += lineBytes {
					if !e.cfg.ICache.Access(a) {
						fetchCycle += uint64(e.cfg.ICacheMissPenalty)
					}
				}
			}
		}
	}
	issueCycles := uint64((actual.Len + e.cfg.Width - 1) / e.cfg.Width)
	complete := fetchCycle + issueCycles + uint64(e.cfg.ExecLatency)
	// Data cache: each missing reference delays the trace's completion.
	if e.cfg.DCache != nil {
		for _, m := range actual.Mems {
			if !e.cfg.DCache.Access(m.Addr) {
				complete += uint64(e.cfg.DCacheMissPenalty)
			}
		}
	}
	retire := complete
	if retire < e.lastRetire {
		retire = e.lastRetire
	}
	e.lastRetire = retire

	cp := *actual
	cp.Branches = nil // the selector reuses these slices; retirement
	cp.Mems = nil     // only needs the identifier and metadata
	e.pushInflight(inflight{tok: e.nextTok, tr: cp, retire: retire, len: actual.Len})
	e.occupancy += actual.Len

	correct := e.cfg.Oracle || e.next.Valid && e.next.ID == actual.ID

	switch {
	case correct:
		// Speculative advance down the (correct) predicted path; the
		// next prediction issues on the next cycle.
		e.pred.Advance(actual)
		e.cycle = fetchCycle + 1
	case e.cfg.AltRecovery && e.next.AltValid && e.next.Alt == actual.ID:
		// §6: "this alternate trace can simplify and reduce the latency
		// for recovering" — the fetch unit redirects to the alternate
		// without waiting for full branch resolution.
		e.res.AltRecoveries++
		e.pred.Advance(actual)
		resume := fetchCycle + uint64(e.cfg.AltPenalty)
		if resume > e.cycle {
			e.cycle = resume
		}
	default:
		// Mispredicted (or no prediction): the front end goes down the
		// wrong path until this trace's branches resolve at completion.
		// Wrong-path fetches make no table updates and the speculative
		// history is backed up at resolution, so the observable effects
		// are (a) the fetch stall and (b) the history ending up on the
		// true path — model both directly.
		e.pred.Advance(actual)
		resolve := complete + 1
		if resolve > e.cycle {
			e.cycle = resolve
		}
		e.drainRetirements(e.cycle)
	}

	// Predict the successor of `actual` with the (possibly stale)
	// tables and the speculative history.
	_, e.nextTok = e.pred.Lookup()
	e.next = e.nextTok.Pred
}

// Finish retires everything still in flight and returns the result.
func (e *Engine) Finish() Result {
	e.drainRetirements(^uint64(0))
	if e.lastRetire > e.cycle {
		e.cycle = e.lastRetire
	}
	e.res.Cycles = e.cycle
	e.res.Stats = e.pred.Stats()
	return e.res
}
