// Package stream captures a workload's selected-trace sequence once
// and replays it to any number of consumers, so an experiment sweep
// pays the simulation cost of each (workload, limit, selection) triple
// exactly once instead of once per (experiment, workload) cell.
//
// This is the trace-then-sweep methodology of predictor studies (and of
// the source paper's own evaluation, which feeds one dynamic stream per
// benchmark through many predictor configurations): the functional
// simulator produces the stream, the stream is recorded, and every
// predictor configuration replays the recording. A Stream is immutable
// once captured, so concurrent replays are safe; each Replay call
// materialises traces into its own scratch struct and performs no
// allocations, which also makes the replay→predict loop allocation-free
// at steady state.
//
// Capture records into fixed chunks of chunkLen elements, so nothing
// it has recorded is copied while the simulation runs. When the run
// ends it concatenates the chunks once into exact-length flat arrays:
// the stream holds no slack, and a capture allocates about 2.5-2.8
// bytes per stream byte, the simulator's memory image included.
//
// Fault injection (internal/faults) targets predictor tables, history
// registers and trace-cache lines — all downstream of trace selection —
// so a cached stream is bit-identical input whether or not faults are
// being injected, and injected runs replay from the same recording as
// clean ones.
package stream

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"unsafe"

	"pathtrace/internal/sim"
	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

// Key identifies one captured stream: everything that determines the
// selected-trace sequence. Faults, experiment identity and predictor
// configuration deliberately do not participate — they are all
// downstream of trace selection.
type Key struct {
	Workload string
	// Params is the workload's generator parameterization
	// (workload.Workload.Params; "" for the fixed benchmarks). It is
	// part of the key so two same-name workloads built with different
	// parameters or seeds — routine for the synthetic zoo — can never
	// share a cached or on-disk stream.
	Params string
	Limit  uint64
	Sel    trace.Config
}

func (k Key) String() string {
	name := k.Workload
	if k.Params != "" {
		name = fmt.Sprintf("%s@%08x", k.Workload, paramsHash(k.Params))
	}
	return fmt.Sprintf("%s/%d/%d-%d", name, k.Limit, k.Sel.MaxLen, k.Sel.MaxBranches)
}

// record is one selected trace, encoded compactly: fixed-width metadata
// here, variable-length branch and memory-reference lists in the
// stream's shared flat arrays (located by offset + count). 40 bytes per
// trace, versus ~200+ for a materialised trace.Trace with its own
// slices.
type record struct {
	id      trace.ID
	startPC uint32
	nextPC  uint32
	brOff   uint32 // offset into Stream.branches
	memOff  uint32 // offset into Stream.mems
	length  uint16 // instructions in the trace
	calls   uint16
	numCtrl uint16 // entries in branches (all control-flow instructions)
	numMem  uint16 // entries in mems
	hash    trace.HashedID
	numBr   uint8 // embedded conditional branches
	flags   uint8
}

const (
	flagEndsInRet = 1 << iota
	flagEndsHalt
)

// Stream is one captured trace sequence. Immutable after Capture
// returns; safe for concurrent Replay.
type Stream struct {
	key      Key
	instrs   uint64
	recs     []record
	branches []trace.Branch
	mems     []trace.MemRef
}

// maxEncodableLen bounds trace length so it fits the record's uint16
// count fields.
const maxEncodableLen = 1<<16 - 1

// Capture simulates the workload for up to limit instructions (0 = to
// completion) under the given trace-selection configuration and records
// every selected trace. ctx, when non-nil, bounds the simulation via
// the instruction-step watchdog (sim.RunContext); an aborted capture
// returns the watchdog's error and records nothing reusable.
func Capture(ctx context.Context, w *workload.Workload, limit uint64, sel trace.Config) (*Stream, error) {
	if sel.MaxLen > maxEncodableLen {
		return nil, fmt.Errorf("stream: MaxLen %d exceeds encodable %d", sel.MaxLen, maxEncodableLen)
	}
	prog, err := w.ProgramErr()
	if err != nil {
		return nil, err
	}
	cpu, err := sim.New(prog)
	if err != nil {
		return nil, err
	}
	var rec recorder
	selector, err := trace.NewSelector(sel, rec.add)
	if err != nil {
		return nil, err
	}
	if err := cpu.RunContext(ctx, limit, selector.Feed); err != nil {
		return nil, err
	}
	selector.Flush()
	return &Stream{
		key:      Key{Workload: w.Name, Params: w.Params, Limit: limit, Sel: sel},
		instrs:   selector.Instrs(),
		recs:     rec.recs.flat(),
		branches: rec.branches.flat(),
		mems:     rec.mems.flat(),
	}, nil
}

// chunkLen is the number of elements in one capture chunk, for
// records, branches and memory references alike.
const chunkLen = 4096

// chunks is an append-only sequence kept in fixed chunkLen-element
// chunks, so recording never copies what it already holds; flat
// concatenates it once, into an array of exactly its length.
type chunks[T any] struct {
	full [][]T // filled chunks, in order
	cur  []T   // the chunk being filled
	n    int   // elements in full and cur together
}

func (c *chunks[T]) add(xs ...T) {
	for len(xs) > 0 {
		if len(c.cur) == cap(c.cur) {
			if c.cur != nil {
				c.full = append(c.full, c.cur)
			}
			c.cur = make([]T, 0, chunkLen)
		}
		k := copy(c.cur[len(c.cur):cap(c.cur)], xs)
		c.cur = c.cur[:len(c.cur)+k]
		c.n += k
		xs = xs[k:]
	}
}

// flat returns the sequence as one exact-length array. Each chunk is
// released as soon as it is copied, so the chunks and the array are
// never both fully live.
func (c *chunks[T]) flat() []T {
	out := make([]T, 0, c.n)
	for i, ch := range c.full {
		out = append(out, ch...)
		c.full[i] = nil
	}
	out = append(out, c.cur...)
	*c = chunks[T]{}
	return out
}

// recorder is Capture's recording state. Offsets are taken from the
// running totals, so they already index the flat arrays flat builds.
type recorder struct {
	recs     chunks[record]
	branches chunks[trace.Branch]
	mems     chunks[trace.MemRef]
}

func (rc *recorder) add(tr *trace.Trace) {
	r := record{
		id:      tr.ID,
		hash:    tr.Hash,
		startPC: tr.StartPC,
		nextPC:  tr.NextPC,
		brOff:   uint32(rc.branches.n),
		memOff:  uint32(rc.mems.n),
		length:  uint16(tr.Len),
		calls:   uint16(tr.Calls),
		numCtrl: uint16(len(tr.Branches)),
		numMem:  uint16(len(tr.Mems)),
		numBr:   uint8(tr.NumBr),
	}
	if tr.EndsInRet {
		r.flags |= flagEndsInRet
	}
	if tr.EndsHalt {
		r.flags |= flagEndsHalt
	}
	rc.recs.add(r)
	rc.branches.add(tr.Branches...)
	rc.mems.add(tr.Mems...)
}

// Key returns the identity the stream was captured under.
func (s *Stream) Key() Key { return s.key }

// Len returns the number of traces in the stream.
func (s *Stream) Len() int { return len(s.recs) }

// Instrs returns the number of instructions the capture consumed.
func (s *Stream) Instrs() uint64 { return s.instrs }

// SizeBytes returns the memory the stream's arrays hold.
func (s *Stream) SizeBytes() int64 {
	return int64(cap(s.recs))*int64(unsafe.Sizeof(record{})) +
		int64(cap(s.branches))*int64(unsafe.Sizeof(trace.Branch{})) +
		int64(cap(s.mems))*int64(unsafe.Sizeof(trace.MemRef{}))
}

// At materialises trace i into dst, reusing no memory beyond dst
// itself: the Branches and Mems slices alias the stream's shared flat
// arrays (capacity-clamped), exactly the reuse contract of the live
// trace.Selector — consumers must copy anything they retain and must
// not mutate the slices.
func (s *Stream) At(i int, dst *trace.Trace) {
	r := &s.recs[i]
	brEnd := r.brOff + uint32(r.numCtrl)
	memEnd := r.memOff + uint32(r.numMem)
	// Field by field: *dst = trace.Trace{...} builds the literal in a
	// temporary and block-copies it. dst is reused, so every field of
	// trace.Trace must be set here.
	dst.ID = r.id
	dst.Hash = r.hash
	dst.StartPC = r.startPC
	dst.NextPC = r.nextPC
	dst.Len = int(r.length)
	dst.NumBr = int(r.numBr)
	dst.Calls = int(r.calls)
	dst.EndsInRet = r.flags&flagEndsInRet != 0
	dst.EndsHalt = r.flags&flagEndsHalt != 0
	dst.Branches = s.branches[r.brOff:brEnd:brEnd]
	dst.Mems = s.mems[r.memOff:memEnd:memEnd]
}

// replayStride is how many traces are replayed between context checks —
// the replay analogue of the simulator's instruction-step watchdog.
const replayStride = 8192

// scratchPool recycles replay scratch traces. The scratch escapes (it
// is passed to dynamic consumer closures), so a plain local would cost
// one heap allocation per Replay call; pooling makes a warm replay
// allocate nothing at all.
var scratchPool = sync.Pool{New: func() any { return new(trace.Trace) }}

// Replay feeds every trace to each consumer in turn, in capture order,
// and returns the stream's instruction and trace counts — the same
// totals a live simulation's selector would report. A single scratch
// trace is reused across the whole replay, so the loop allocates
// nothing. ctx, when non-nil, is observed every replayStride traces.
func (s *Stream) Replay(ctx context.Context, consumers ...func(*trace.Trace)) (instrs, traces uint64, err error) {
	tr := scratchPool.Get().(*trace.Trace)
	defer scratchPool.Put(tr)
	check := replayStride
	for i := range s.recs {
		if ctx != nil {
			if check--; check <= 0 {
				check = replayStride
				if err := ctx.Err(); err != nil {
					return 0, 0, fmt.Errorf("stream: replay aborted at %d traces: %w", i, err)
				}
			}
		}
		s.At(i, tr)
		for _, fn := range consumers {
			fn(tr)
		}
	}
	return s.instrs, uint64(len(s.recs)), nil
}

// ReplayParallel feeds the full stream to every consumer, each on its
// own goroutine with its own scratch trace — the payoff a recorded
// stream has over a live simulator, which can only fan out one
// instruction stream sequentially. Each consumer still sees every trace
// in capture order, so per-consumer results are bit-identical to a
// sequential Replay; consumers must therefore not share mutable state
// with each other.
//
// A consumer panic is recovered and returned as an error (a goroutine
// panic would otherwise escape the caller's recovery entirely), naming
// the consumer's position in the argument list.
func (s *Stream) ReplayParallel(ctx context.Context, consumers ...func(*trace.Trace)) (instrs, traces uint64, err error) {
	if len(consumers) <= 1 || runtime.GOMAXPROCS(0) == 1 {
		// One processor: goroutines only add scheduling plus k-fold
		// trace materialisation; a single shared pass is strictly
		// faster.
		return s.Replay(ctx, consumers...)
	}
	errs := make([]error, len(consumers))
	var wg sync.WaitGroup
	for i, fn := range consumers {
		wg.Add(1)
		go func(i int, fn func(*trace.Trace)) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("stream: consumer %d panicked: %v", i, r)
				}
			}()
			_, _, errs[i] = s.Replay(ctx, fn)
		}(i, fn)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	return s.instrs, uint64(len(s.recs)), nil
}
