package serve

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"pathtrace/internal/faults"
	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
)

// session is one client prediction stream: a predictor of the server's
// configuration, owned by exactly one shard and touched only under that
// shard's lock. Per-session predictors are what make serving
// transparent to prediction: a session's predictor sees exactly the
// trace sequence the client sent, in order, with no cross-session
// interleaving, so its stats are bit-identical to an in-process replay.
type session struct {
	id uint64
	p  predictor.NextTracePredictor

	// shadows are the session's evaluation-only contender predictors:
	// every applied update also trains them, but only p ever answers
	// Predict, and only p is snapshotted. They exist to measure — their
	// accuracy flows into the per-backend metric families — so losing
	// them (restore on another process, crash) costs a warm-up, never
	// correctness.
	shadows []shadowPred

	// lastSeq is the exactly-once cursor: the sequence of the last
	// applied trace. A batch replaying sequences at or below it trains
	// only its unseen suffix. Zero means no sequenced trace has been
	// applied.
	lastSeq uint64

	// dirty marks state not yet on disk: set by training and restore,
	// cleared by a checkpoint's encode, and set again if its write fails.
	dirty bool

	// snapGen is the generation token of the last tracked batch answered
	// for the session, 0 when none is current. Only then does the
	// primary record the slots it changes, and only a tracked batch naming
	// this token gets a delta.
	snapGen uint64
}

// shadowPred is one shadow backend's predictor within a session.
type shadowPred struct {
	name string
	p    predictor.NextTracePredictor
}

// shadowBackend is a shard's template for building session shadows:
// the backend descriptor plus the fully derived config (shadow backend
// name, metrics recorder, no fault injector — shadows measure the
// backend, not the fault plan).
type shadowBackend struct {
	b   predictor.Backend
	cfg predictor.Config
}

// shardResp is a shard's answer to one request.
type shardResp struct {
	err     error                  // nil, or a typed protocol error
	shard   uint32                 // OpOpen, OpStats, OpRestore
	lastSeq uint64                 // OpOpen
	skipped uint32                 // batch ops: already-applied prefix length
	preds   []predictor.Prediction // OpPredictBatch: one per applied trace, in the request's buffer
	applied uint32                 // batch ops
	correct uint32                 // batch ops
	sess    predictor.Stats        // OpStats: this session's counters
	written bool                   // the shard wrote the whole answer into the request's buffer
}

// shard owns a set of sessions and runs their requests one at a time
// under its lock, each to completion on the goroutine of the connection
// that read it. The wait for the lock is the unit of backpressure: at
// most queueLen requests wait, and one past that is an immediate typed
// overload, pushed back to the client.
type shard struct {
	id       int
	backend  predictor.Backend // resolved primary backend
	cfg      predictor.Config
	fcfg     *faults.Config  // per-session injector template, optional
	shadows  []shadowBackend // shadow-evaluation templates, may be empty
	queueLen int64           // bound on waiting requests
	waiting  atomic.Int64    // requests waiting for mu
	metrics  *shardMetrics

	// mu serialises the shard. Everything below it, and the sessions'
	// predictors, are touched only under mu (or before the server serves
	// and after stop).
	mu       sync.Mutex
	closed   bool // set by stop: no request runs after it
	sessions map[uint64]*session

	// gens issues snapshot generation tokens. It starts at a random
	// point, so a token a client holds from another server, or from an
	// earlier run of this one, does not match.
	gens uint64
}

func newShard(id int, backend predictor.Backend, cfg predictor.Config, fcfg *faults.Config, shadows []shadowBackend, queueLen int, m *shardMetrics) *shard {
	return &shard{
		id:       id,
		backend:  backend,
		cfg:      cfg,
		fcfg:     fcfg,
		shadows:  shadows,
		queueLen: int64(queueLen),
		sessions: make(map[uint64]*session),
		metrics:  m,
		gens:     rand.Uint64(),
	}
}

// run executes one request to completion on the calling goroutine and
// writes the shard's answer to resp. It reports false, leaving resp
// untouched, when the request was refused: queueLen requests already
// wait for the shard (an overload, counted), or the shard is stopped
// (shutdown, not backpressure: not counted). Either way the caller
// replies ErrOverloaded, which is retryable — what a client racing a
// drain should see. Event counts are published before the lock is
// released, so a client holding its answer already sees its own traces
// in /metrics.
func (sh *shard) run(req *request, resp *shardResp) bool {
	if sh.waiting.Add(1) > sh.queueLen {
		sh.waiting.Add(-1)
		sh.metrics.overloads.Inc()
		return false
	}
	sh.mu.Lock()
	sh.waiting.Add(-1)
	defer sh.mu.Unlock()
	if sh.closed {
		return false
	}
	t0 := time.Now()
	*resp = sh.process(req)
	sh.metrics.observe(req.op, time.Since(t0))
	sh.metrics.flush()
	return true
}

// stop refuses every later request; one running now finishes first.
// Safe to call more than once.
func (sh *shard) stop() {
	sh.mu.Lock()
	sh.closed = true
	sh.mu.Unlock()
}

// process executes one request under the shard lock.
func (sh *shard) process(req *request) shardResp {
	sh.metrics.requests.Inc()
	switch req.op {
	case OpOpen:
		return sh.open(req.session)
	case OpUpdateBatch, OpPredictBatch:
		s, ok := sh.sessions[req.session]
		if !ok {
			return shardResp{err: ErrUnknownSession}
		}
		if req.tracked {
			return sh.trackedBatch(s, req)
		}
		return sh.batch(s, req, req.op == OpPredictBatch)
	case OpSnapshot:
		s, ok := sh.sessions[req.session]
		if !ok {
			return shardResp{err: ErrUnknownSession}
		}
		return sh.snapshotSession(s, req)
	case OpRestore:
		return sh.restore(req)
	case OpStats:
		s, ok := sh.sessions[req.session]
		if !ok {
			return shardResp{err: ErrUnknownSession}
		}
		return shardResp{shard: uint32(sh.id), sess: s.p.Stats()}
	default:
		return shardResp{err: ErrBadRequest}
	}
}

// sessionCfg is the predictor configuration for a session on this
// shard: the server's geometry plus the shard's process-local
// attachments (metrics recorder, and a fresh fault injector when the
// server runs an injection plan).
func (sh *shard) sessionCfg() predictor.Config {
	cfg := sh.cfg
	// Every session on the shard reports into the shard's event
	// counters; the rollup is what operators watch, and the per-session
	// split stays available via OpStats.
	cfg.Recorder = &sh.metrics.rec
	if sh.fcfg != nil {
		// Injectors are not concurrency-safe and their draw streams
		// are stateful; every predictor gets its own, seeded
		// identically, so a served session degrades exactly like an
		// in-process replay under the same fault plan.
		cfg.Faults = faults.New(*sh.fcfg)
	}
	return cfg
}

// open creates the session's predictor (idempotent: reopening an
// existing session is not an error and does not reset it, so a client
// reconnect cannot silently discard trained state). The response
// carries the session's last applied update sequence, so a
// reconnecting client seeds its counter instead of colliding with the
// duplicate detector.
func (sh *shard) open(id uint64) shardResp {
	s, ok := sh.sessions[id]
	if !ok {
		p, err := sh.backend.New(sh.sessionCfg())
		if err != nil {
			return shardResp{err: ErrBadRequest}
		}
		s = &session{id: id, p: p, shadows: sh.newShadows(), dirty: true}
		sh.sessions[id] = s
		sh.metrics.sessions.Set(int64(len(sh.sessions)))
	}
	return shardResp{shard: uint32(sh.id), lastSeq: s.lastSeq}
}

// newShadows builds one fresh predictor per configured shadow backend.
// Shadow configs are validated at server construction, so a failure
// here cannot happen in a running server; a shadow that does fail is
// simply absent from the session rather than failing the open.
func (sh *shard) newShadows() []shadowPred {
	if len(sh.shadows) == 0 {
		return nil
	}
	out := make([]shadowPred, 0, len(sh.shadows))
	for _, sb := range sh.shadows {
		p, err := sb.b.New(sb.cfg)
		if err != nil {
			continue
		}
		out = append(out, shadowPred{name: sb.b.Name, p: p})
	}
	return out
}

// batch runs one full Predict/Update round per trace through the
// predictor's native batch loop — the immediate-update regime of the
// paper (§4.1), exactly as Stream.Replay drives it in process.
// Sequences are per trace: the frame covers [startSeq, startSeq+n),
// and the shard has already applied every sequence <= s.lastSeq, so a
// replayed frame (client resend after a lost ack, or a restore from a
// snapshot older than the last ack) skips its already-applied prefix
// and trains only the unseen suffix. Nothing trains twice, whatever
// boundary the retry lands on. correct covers the applied suffix only.
// A frame starting past lastSeq+1 would train across traces the session
// never saw; it is refused with ErrSeqGap and trains nothing.
func (sh *shard) batch(s *session, req *request, wantPreds bool) shardResp {
	if req.seq > s.lastSeq+1 {
		return shardResp{err: ErrSeqGap}
	}
	n := uint64(len(req.traces))
	var skip uint64
	if req.seq != 0 && s.lastSeq >= req.seq {
		skip = s.lastSeq - req.seq + 1
		if skip > n {
			skip = n
		}
		sh.metrics.dupUpdates.Inc()
	}
	fresh := req.traces[skip:]
	var preds []predictor.Prediction
	if wantPreds && len(fresh) > 0 {
		if cap(req.preds) < len(fresh) {
			req.preds = make([]predictor.Prediction, len(fresh))
		}
		preds = req.preds[:len(fresh)]
	}
	correct := predictor.PredictBatch(s.p, fresh, preds)
	// Shadow fan-out, batched like the primary: each shadow sees the
	// same fresh suffix in the same strict alternation. Shadows never
	// touch the response (their accuracy shows only in the per-backend
	// metric families), and a replayed prefix skips them exactly as it
	// skips the primary, so shadow counters move once per applied trace.
	for _, sp := range s.shadows {
		predictor.UpdateBatch(sp.p, fresh)
	}
	sh.metrics.observeBatch(len(req.traces))
	if len(fresh) > 0 {
		sh.metrics.batches.Inc()
		sh.metrics.traces.Add(uint64(len(fresh)))
		s.dirty = true
	}
	if req.seq != 0 && n > 0 {
		if end := req.seq + n - 1; end > s.lastSeq {
			s.lastSeq = end
		}
	}
	return shardResp{
		skipped: uint32(skip),
		applied: uint32(len(fresh)),
		correct: uint32(correct),
		preds:   preds,
	}
}

// appendFrame appends one session's snapshot frame to dst: the primary
// backend's state section stamped with the backend name, written once,
// straight into dst. Shadows are deliberately not captured — they are
// measurements, not state the client can lose. A state that does not
// encode (an unbounded session's frame past snapshot.MaxEncoded) fails
// with dst as passed. Runs under the shard lock.
func (sh *shard) appendFrame(dst []byte, s *session) ([]byte, error) {
	return snapshot.AppendFrame(dst, s.id, s.lastSeq, sh.backend.Name, func(b []byte) ([]byte, error) {
		return sh.backend.Append(b, s.p)
	})
}

// snapshotSession writes the whole OpSnapshot response — the OK
// header, then the session's full frame — into the connection's
// response buffer (req.resp), so the state is encoded once, into the
// bytes that go on the wire. It leaves the session's tracking alone.
// The backend captures state at a round boundary, which holds by
// construction here: the shard runs complete Predict/Update rounds per
// request.
func (sh *shard) snapshotSession(s *session, req *request) shardResp {
	b := appendResponseHeader(req.resp[:0], OpSnapshot, req.reqID, StatusOK)
	at := len(b)
	b, err := sh.appendFrame(b, s)
	if err != nil {
		return shardResp{err: ErrBadRequest}
	}
	req.resp = b
	sh.countSnapshot(false, len(b)-at)
	return shardResp{written: true}
}

// trackedBatch runs a tracked OpUpdateBatch: the batch, then, under the
// same lock, the session's state after it, all written into req.resp as
// one answer. A batch the session refuses (a sequence gap) trains
// nothing and carries no state.
func (sh *shard) trackedBatch(s *session, req *request) shardResp {
	r := sh.batch(s, req, false)
	if r.err != nil {
		return r
	}
	b := appendBatchCounts(appendResponseHeader(req.resp[:0], OpUpdateBatch, req.reqID, StatusOK), &r)
	b, err := sh.appendTracked(b, s, req.gen)
	if err != nil {
		// The batch trained, but the state does not encode: the backend
		// writes no frame for this session at all.
		return shardResp{err: ErrBadRequest}
	}
	req.resp = b
	r.written = true
	return r
}

// appendTracked appends a tracked snapshot to b: a fresh generation
// token, then a delta when held, the generation the client holds, is
// the session's last answered one and the primary still holds its mark
// (an unbounded table's grow drops it), else a full frame that restarts
// the primary's change record.
func (sh *shard) appendTracked(b []byte, s *session, held uint64) ([]byte, error) {
	if sh.gens++; sh.gens == 0 {
		sh.gens++
	}
	gen := sh.gens
	b = le.AppendUint64(b, gen)
	at := len(b)
	delta := held != 0 && held == s.snapGen
	var err error
	if delta {
		b, err = snapshot.AppendDelta(b, s.id, s.lastSeq, sh.backend.Name, func(b []byte) ([]byte, error) {
			return sh.backend.AppendDelta(b, s.p)
		})
		delta = err == nil
	}
	if !delta {
		if b, err = sh.appendFrame(b, s); err != nil {
			return b, err
		}
	}
	s.snapGen = 0
	if delta || sh.backend.Mark(s.p) == nil {
		s.snapGen = gen
	}
	sh.countSnapshot(delta, len(b)-at)
	return b, nil
}

// countSnapshot accounts one snapshot of n bytes served.
func (sh *shard) countSnapshot(delta bool, n int) {
	sh.metrics.snapshots.Inc()
	if delta {
		sh.metrics.deltaSnaps.Inc()
		sh.metrics.deltaSnapBytes.Add(uint64(n))
	} else {
		sh.metrics.fullSnapBytes.Add(uint64(n))
	}
}

// restore decodes and installs a session snapshot, replacing any
// existing session of the same ID (the frame is authoritative: it is
// the client's last known-good state). The frame's saved geometry must
// match this server's predictor configuration; installSnapshot
// enforces that, so a hostile frame cannot size tables beyond what the
// server already runs.
func (sh *shard) restore(req *request) shardResp {
	sess, err := snapshot.Decode(req.blob)
	if err != nil {
		sh.metrics.restoreRejects.Inc()
		return shardResp{err: ErrBadSnapshot}
	}
	if sess.ID != req.session {
		sh.metrics.restoreRejects.Inc()
		return shardResp{err: ErrBadSnapshot}
	}
	if err := sh.installSnapshot(sess); err != nil {
		sh.metrics.restoreRejects.Inc()
		return shardResp{err: ErrBadSnapshot}
	}
	sh.metrics.restores.Inc()
	return shardResp{shard: uint32(sh.id)}
}

// installSnapshot rebuilds a decoded session and adds it to the shard.
// The frame's backend tag must resolve to a backend of the server's
// snapshot family — a TAGE frame can never install into a hybrid
// server, whatever its bytes claim — and the state then restores
// through that backend's own codec, which enforces the geometry match.
// Shadows restart cold: they are evaluation state, not session state.
// Runs under the shard lock, or before the server serves (warm
// restart).
func (sh *shard) installSnapshot(sess *snapshot.Session) error {
	b, ok := predictor.BackendByName(sess.Backend)
	if !ok {
		return fmt.Errorf("serve: snapshot backend %q not registered", sess.Backend)
	}
	if b.Family != sh.backend.Family {
		return fmt.Errorf("serve: snapshot backend %q (family %q) incompatible with server backend %q (family %q)",
			b.Name, b.Family, sh.backend.Name, sh.backend.Family)
	}
	p, err := b.Restore(sess.State, sh.sessionCfg())
	if err != nil {
		return err
	}
	sh.sessions[sess.ID] = &session{
		id:      sess.ID,
		p:       p,
		shadows: sh.newShadows(),
		lastSeq: sess.LastSeq,
		dirty:   true,
	}
	sh.metrics.sessions.Set(int64(len(sh.sessions)))
	return nil
}

// dirtyIDs appends the IDs of the shard's dirty sessions to dst.
func (sh *shard) dirtyIDs(dst []uint64) []uint64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for id, s := range sh.sessions {
		if s.dirty {
			dst = append(dst, id)
		}
	}
	return dst
}

// saveSession writes session id's frame to dir, encoding it into buf,
// which it returns for reuse. The encode runs under the shard lock,
// held for this one session, and clears the dirty mark; the write runs
// after the lock is released, and a failed one sets the mark again, so
// the next sweep retries it. A session that does not encode stays
// dirty.
func (sh *shard) saveSession(dir string, id uint64, buf []byte) ([]byte, error) {
	sh.mu.Lock()
	s := sh.sessions[id]
	frame, err := sh.appendFrame(buf[:0], s)
	if err == nil {
		s.dirty = false
		buf = frame
	}
	sh.mu.Unlock()
	if err != nil {
		return buf, err
	}
	if err := writeSnapshotFile(dir, id, frame); err != nil {
		sh.mu.Lock()
		s.dirty = true
		sh.mu.Unlock()
		return buf, err
	}
	return buf, nil
}

// splitmix64 is the session-to-shard hash: cheap, well mixed, and
// stable across runs (the same session always lands on the same shard
// for a given shard count).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
