package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pathtrace/internal/faults"
	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
)

// session is one client prediction stream: a predictor of the server's
// configuration, owned by exactly one shard and touched only on that
// shard's goroutine. Per-session predictors are what make serving
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

	// dirty marks state changed since the last checkpoint encode.
	dirty bool
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

// task is one unit of shard work: a parsed request plus the completion
// callback that delivers the shard's answer back to the connection.
// done is invoked exactly once, on the shard goroutine.
type task struct {
	req  request
	done func(resp shardResp)
}

// shardResp is a shard's answer to one request.
type shardResp struct {
	err      error  // nil, or a typed protocol error
	shard    uint32 // OpOpen, OpStats, OpRestore
	sessions uint32 // OpStats
	lastSeq  uint64 // OpOpen
	pred     predictor.Prediction
	skipped  uint32                 // batch ops: already-applied prefix length
	preds    []predictor.Prediction // OpPredictBatch: one per applied trace
	applied  uint32                 // batch ops
	correct  uint32                 // batch ops
	sess     predictor.Stats        // OpStats: this session's counters
	agg      predictor.Stats        // OpStats: shard-wide aggregate
	blob     []byte                 // OpSnapshot: the encoded frame
	ckpt     []ckptFrame            // opCheckpoint: dirty sessions, encoded
}

// ckptFrame is one session's encoded snapshot bound for the checkpoint
// writer.
type ckptFrame struct {
	id    uint64
	frame []byte
}

// shardCounters are the shard's externally visible load counters,
// updated atomically so the admin listener never touches predictor
// state.
type shardCounters struct {
	Requests       atomic.Uint64
	Batches        atomic.Uint64
	Traces         atomic.Uint64
	Overloads      atomic.Uint64
	Snapshots      atomic.Uint64 // OpSnapshot frames served
	Restores       atomic.Uint64 // sessions installed via OpRestore
	RestoreRejects atomic.Uint64 // OpRestore frames rejected
	DupUpdates     atomic.Uint64 // batch frames that replayed already-applied sequences
}

// shard owns a set of sessions and processes their requests strictly
// in arrival order on a single goroutine. The queue is the unit of
// backpressure: enqueue never blocks — a full queue is an immediate
// typed overload, pushed back to the client.
type shard struct {
	id       int
	backend  predictor.Backend // resolved primary backend
	cfg      predictor.Config
	fcfg     *faults.Config  // per-session injector template, optional
	shadows  []shadowBackend // shadow-evaluation templates, may be empty
	queue    chan task
	sessions map[uint64]*session
	counters shardCounters
	metrics  *shardMetrics // nil only in tests that build shards directly

	// qmu guards queue liveness: enqueue holds the read side across its
	// send attempt and stop takes the write side before closing, so an
	// enqueue racing a drain is rejected instead of panicking on a send
	// to a closed channel. (The server's shutdown ordering — connections
	// before shards — makes the race unreachable in normal operation;
	// the lock makes it safe even when that ordering is violated.)
	qmu    sync.RWMutex
	closed bool

	// snap mirrors the shard's aggregate predictor stats and session
	// count for the admin listener, which must not wait on the queue.
	// Written only by the shard goroutine, after each task.
	snapMu   sync.Mutex
	snapAgg  predictor.Stats
	snapSess int

	wg sync.WaitGroup
}

func newShard(id int, backend predictor.Backend, cfg predictor.Config, fcfg *faults.Config, shadows []shadowBackend, queueLen int, m *shardMetrics) *shard {
	return &shard{
		id:       id,
		backend:  backend,
		cfg:      cfg,
		fcfg:     fcfg,
		shadows:  shadows,
		queue:    make(chan task, queueLen),
		sessions: make(map[uint64]*session),
		metrics:  m,
	}
}

// start launches the shard goroutine. The shard runs until its queue is
// closed, then finishes whatever was enqueued — the drain guarantee.
func (sh *shard) start() {
	sh.wg.Add(1)
	go func() {
		defer sh.wg.Done()
		for t := range sh.queue {
			t0 := time.Now()
			resp := sh.process(t.req)
			sh.metrics.observe(t.req.op, time.Since(t0))
			t.done(resp)
			sh.publishSnapshot()
		}
	}()
}

// stop closes the queue and waits for the shard goroutine to finish the
// backlog. Safe to call more than once, and safe against concurrent
// enqueue: the write lock waits out in-flight send attempts, and
// enqueues arriving after it are rejected.
func (sh *shard) stop() {
	sh.qmu.Lock()
	if !sh.closed {
		sh.closed = true
		close(sh.queue)
	}
	sh.qmu.Unlock()
	sh.wg.Wait()
}

// enqueue offers a task to the shard without blocking. A full queue is
// the overload condition; the caller replies ErrOverloaded. A stopped
// shard rejects without counting an overload — that is shutdown, not
// backpressure — and the caller's reply (ErrOverloaded) is retryable,
// which is what a racing client should see during a drain.
func (sh *shard) enqueue(t task) bool {
	sh.qmu.RLock()
	defer sh.qmu.RUnlock()
	if sh.closed {
		return false
	}
	select {
	case sh.queue <- t:
		return true
	default:
		sh.counters.Overloads.Add(1)
		return false
	}
}

// process executes one request on the shard goroutine.
func (sh *shard) process(req request) shardResp {
	sh.counters.Requests.Add(1)
	switch req.op {
	case OpOpen:
		return sh.open(req.session)
	case OpPredict:
		s, ok := sh.sessions[req.session]
		if !ok {
			return shardResp{err: ErrUnknownSession}
		}
		return shardResp{pred: s.p.Predict()}
	case OpUpdateBatch, OpPredictBatch:
		s, ok := sh.sessions[req.session]
		if !ok {
			return shardResp{err: ErrUnknownSession}
		}
		return sh.batch(s, req, req.op == OpPredictBatch)
	case OpSnapshot:
		s, ok := sh.sessions[req.session]
		if !ok {
			return shardResp{err: ErrUnknownSession}
		}
		return sh.snapshotSession(s)
	case OpRestore:
		return sh.restore(req)
	case opCheckpoint:
		return sh.checkpoint()
	case OpStats:
		s, ok := sh.sessions[req.session]
		if !ok {
			return shardResp{err: ErrUnknownSession}
		}
		return shardResp{
			shard:    uint32(sh.id),
			sessions: uint32(len(sh.sessions)),
			sess:     s.p.Stats(),
			agg:      sh.aggregate(),
		}
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
	if sh.metrics != nil {
		// Every session on the shard reports into the shard's event
		// counters; the rollup is what operators watch, and the
		// per-session split stays available via OpStats.
		cfg.Recorder = &sh.metrics.rec
	}
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
func (sh *shard) batch(s *session, req request, wantPreds bool) shardResp {
	n := uint64(len(req.traces))
	var skip uint64
	if req.seq != 0 && s.lastSeq >= req.seq {
		skip = s.lastSeq - req.seq + 1
		if skip > n {
			skip = n
		}
		sh.counters.DupUpdates.Add(1)
	}
	fresh := req.traces[skip:]
	var preds []predictor.Prediction
	if wantPreds && len(fresh) > 0 {
		preds = make([]predictor.Prediction, len(fresh))
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
		sh.counters.Batches.Add(1)
		sh.counters.Traces.Add(uint64(len(fresh)))
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

// exportSession captures a session as a codec-ready snapshot: the
// primary backend's state section stamped with the backend name.
// Shadows are deliberately not captured — they are measurements, not
// state the client can lose. Runs on the shard goroutine (or after the
// shard is stopped, during drain).
func (sh *shard) exportSession(s *session) (*snapshot.Session, error) {
	if !sh.backend.Snapshottable() {
		return nil, predictor.ErrNotSnapshottable
	}
	state, err := sh.backend.Save(s.p)
	if err != nil {
		return nil, err
	}
	return &snapshot.Session{
		ID:      s.id,
		LastSeq: s.lastSeq,
		Backend: sh.backend.Name,
		State:   state,
	}, nil
}

// snapshotSession serializes one session into a checksummed frame.
// Save captures state at a round boundary, which holds by construction
// here: the shard runs complete Predict/Update rounds per request.
func (sh *shard) snapshotSession(s *session) shardResp {
	sess, err := sh.exportSession(s)
	if err != nil {
		return shardResp{err: ErrBadRequest}
	}
	b, err := snapshot.Encode(sess)
	if err != nil {
		return shardResp{err: ErrBadRequest}
	}
	sh.counters.Snapshots.Add(1)
	return shardResp{blob: b}
}

// restore decodes and installs a session snapshot, replacing any
// existing session of the same ID (the frame is authoritative: it is
// the client's — or the draining peer's — last known-good state). The
// frame's saved geometry must match this server's predictor
// configuration; installSnapshot enforces that, so a hostile frame
// cannot size tables beyond what the server already runs.
func (sh *shard) restore(req request) shardResp {
	sess, err := snapshot.Decode(req.blob)
	if err != nil {
		sh.counters.RestoreRejects.Add(1)
		return shardResp{err: ErrBadSnapshot}
	}
	if sess.ID != req.session {
		sh.counters.RestoreRejects.Add(1)
		return shardResp{err: ErrBadSnapshot}
	}
	if err := sh.installSnapshot(sess); err != nil {
		sh.counters.RestoreRejects.Add(1)
		return shardResp{err: ErrBadSnapshot}
	}
	sh.counters.Restores.Add(1)
	return shardResp{shard: uint32(sh.id)}
}

// installSnapshot rebuilds a decoded session and adds it to the shard.
// The frame's backend tag must resolve to a backend of the server's
// snapshot family — a TAGE frame can never install into a hybrid
// server, whatever its bytes claim — and the state then restores
// through that backend's own codec, which enforces the geometry match.
// Shadows restart cold: they are evaluation state, not session state.
// Runs on the shard goroutine, or before the shard starts (warm
// restart).
func (sh *shard) installSnapshot(sess *snapshot.Session) error {
	b, ok := predictor.BackendByName(sess.Backend)
	if !ok || !b.Snapshottable() {
		return fmt.Errorf("serve: snapshot backend %q not restorable", sess.Backend)
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
	return nil
}

// checkpoint encodes every dirty session for the checkpoint writer and
// clears the dirty marks. Sessions that fail to encode stay dirty and
// are skipped (nothing consumes a partial frame).
func (sh *shard) checkpoint() shardResp {
	var out []ckptFrame
	for _, s := range sh.sessions {
		if !s.dirty {
			continue
		}
		sess, err := sh.exportSession(s)
		if err != nil {
			continue
		}
		b, err := snapshot.Encode(sess)
		if err != nil {
			continue
		}
		s.dirty = false
		out = append(out, ckptFrame{id: s.id, frame: b})
	}
	return shardResp{ckpt: out}
}

// aggregate sums predictor stats across the shard's sessions.
func (sh *shard) aggregate() predictor.Stats {
	var agg predictor.Stats
	for _, s := range sh.sessions {
		agg = agg.Add(s.p.Stats())
	}
	return agg
}

// publishSnapshot refreshes the admin-visible copy of the shard's
// predictor aggregate. Runs on the shard goroutine.
func (sh *shard) publishSnapshot() {
	agg := sh.aggregate()
	n := len(sh.sessions)
	sh.snapMu.Lock()
	sh.snapAgg = agg
	sh.snapSess = n
	sh.snapMu.Unlock()
}

// snapshot returns the last published aggregate without touching
// predictor state.
func (sh *shard) snapshot() (agg predictor.Stats, sessions int) {
	sh.snapMu.Lock()
	defer sh.snapMu.Unlock()
	return sh.snapAgg, sh.snapSess
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
