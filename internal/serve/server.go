package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pathtrace/internal/faults"
	"pathtrace/internal/metrics"
	"pathtrace/internal/predictor"
)

// Config sizes a prediction server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:9191". Port 0
	// picks a free port; Server.Addr reports the bound address.
	Addr string

	// AdminAddr, when non-empty, starts the sidecar admin HTTP listener
	// (/healthz, /statsz, /varz) on this address.
	AdminAddr string

	// Shards is the number of predictor shards (default: GOMAXPROCS).
	// Sessions are hashed to shards; each shard processes its queue on
	// one goroutine.
	Shards int

	// QueueLen bounds each shard's request queue (default 1024). A full
	// queue overloads: the request is rejected immediately with
	// ErrOverloaded rather than queued unboundedly.
	QueueLen int

	// Predictor configures the per-session predictors. The zero value
	// defaults (inside predictor.New) to the basic correlated predictor;
	// servers usually want the paper's headline hybrid. Predictor.Backend
	// selects the serving backend from the registry.
	Predictor predictor.Config

	// Shadows names predictor backends to run in shadow-evaluation mode:
	// every session's applied updates also train one predictor per
	// listed backend (built from the same Predictor geometry), but only
	// the primary ever answers Predict or is snapshotted. Per-backend
	// accuracy is exported through the ntpd_backend_* metric families,
	// so contenders are compared on live traffic without risking it.
	Shadows []string

	// Faults, when non-nil, gives every session's predictor its own
	// deterministic injector built from this plan — the server-side
	// analogue of ntp -inject, for degraded-mode testing.
	Faults *faults.Config

	// CheckpointDir, when non-empty, enables crash-safe persistence:
	// every session is periodically snapshotted to
	// <dir>/<sessionID>.ntss (atomic rename, fsync'd), sessions found
	// there are restored on startup (warm restart), and a drain spills
	// sessions it cannot hand off to this directory.
	CheckpointDir string

	// CheckpointEvery is the periodic checkpoint interval (default 2s).
	CheckpointEvery time.Duration

	// HandoffAddr, when non-empty, is a peer ntpd address: Shutdown
	// streams every live session there via OpRestore before returning,
	// so a drain loses nothing even without a checkpoint directory.
	HandoffAddr string

	// WriteTimeout bounds each response frame write (default 30s,
	// negative disables). A peer that stops reading would otherwise
	// block the connection writer, back its channel up, and stall the
	// shard goroutine behind it.
	WriteTimeout time.Duration

	// IdleTimeout, when positive, closes connections that send no
	// request for this long. Zero disables (clients legitimately idle
	// between replay bursts).
	IdleTimeout time.Duration

	// WriteBufferSize sizes each connection's response write buffer
	// (default 64 KiB). Responses coalesce in this buffer and flush
	// once the response channel momentarily empties — one syscall per
	// burst of pipelined responses rather than one per frame. Size it
	// to at least a full batch response when raising MaxBatch-scale
	// batch sizes.
	WriteBufferSize int

	// Limits configures token-bucket admission control ahead of the
	// shard queues: per-client quotas keyed by the connection's OpHello
	// tag plus an optional global cap. The zero value disables it.
	// Hot-reloadable at runtime via Server.SetLimits (exposed as the
	// admin plane's /limitz endpoint) without disturbing sessions.
	Limits Limits
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 2 * time.Second
	}
	switch {
	case c.WriteTimeout == 0:
		c.WriteTimeout = 30 * time.Second
	case c.WriteTimeout < 0:
		c.WriteTimeout = 0
	}
	if c.WriteBufferSize <= 0 {
		c.WriteBufferSize = 1 << 16
	}
	// The session predictor config must not carry a shared injector:
	// injectors are stateful and not concurrency-safe, so they are
	// created per session from c.Faults instead.
	c.Predictor.Faults = nil
	return c
}

// Server hosts predictor shards behind a TCP listener.
type Server struct {
	cfg     Config
	backend predictor.Backend // resolved primary backend
	ln      net.Listener
	shards  []*shard
	admin   *adminServer
	reg     *metrics.Registry
	ckpt    *checkpointer // nil without a checkpoint directory
	start   time.Time

	draining atomic.Bool
	inflight sync.WaitGroup // unfinished shard tasks

	// Admission control: the active limits (swapped atomically on hot
	// reload), the global token bucket, and per-client-tag accounting.
	limits       atomic.Pointer[Limits]
	globalBucket tokenBucket
	clients      *clientRegistry

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup

	counters serverCounters

	quiesceOnce sync.Once
	closeOnce   sync.Once
	closeErr    error
}

// serverCounters are the server-wide expvar-style counters.
type serverCounters struct {
	Accepted     atomic.Uint64 // connections accepted
	Active       atomic.Int64  // connections currently open
	Requests     atomic.Uint64 // frames parsed into requests
	BadFrames    atomic.Uint64 // connections dropped on malformed frames
	DrainRejects atomic.Uint64 // requests rejected while draining
	Throttled    atomic.Uint64 // requests rejected by admission control

	// Warm-restart accounting (set once during NewServer).
	RestoredSessions atomic.Uint64 // sessions loaded from checkpoints
	CorruptSnapshots atomic.Uint64 // checkpoint files rejected as invalid

	// Drain offload accounting (set during Shutdown).
	HandoffSessions atomic.Uint64 // sessions streamed to the handoff peer
	HandoffRetries  atomic.Uint64 // handoff attempts that had to be retried
	HandoffFailed   atomic.Uint64 // sessions the peer never accepted
	SpilledSessions atomic.Uint64 // sessions written to the checkpoint dir at drain
	LostSessions    atomic.Uint64 // sessions with nowhere to go (no peer, no dir)
}

// NewServer binds the listener(s) and starts the shard goroutines and
// accept loop. It returns once the server is serving.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()

	// Resolve the primary backend and validate every shadow before
	// binding anything: a server that cannot build its predictors is a
	// configuration error at startup, not a per-session ErrBadRequest.
	backend, err := predictor.ResolveBackend(cfg.Predictor)
	if err != nil {
		return nil, err
	}
	if _, err := backend.New(cfg.Predictor); err != nil {
		return nil, fmt.Errorf("serve: backend %q: %w", backend.Name, err)
	}
	shadowCfgs := make([]shadowBackend, 0, len(cfg.Shadows))
	for _, name := range cfg.Shadows {
		b, ok := predictor.BackendByName(name)
		if !ok {
			return nil, fmt.Errorf("serve: unknown shadow backend %q (registered: %v)", name, predictor.BackendNames())
		}
		for _, prev := range shadowCfgs {
			if prev.b.Name == name {
				return nil, fmt.Errorf("serve: duplicate shadow backend %q", name)
			}
		}
		scfg := cfg.Predictor
		scfg.Backend = name
		if _, err := b.New(scfg); err != nil {
			return nil, fmt.Errorf("serve: shadow backend %q: %w", name, err)
		}
		shadowCfgs = append(shadowCfgs, shadowBackend{b: b, cfg: scfg})
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		backend: backend,
		ln:      ln,
		conns:   map[net.Conn]struct{}{},
		reg:     metrics.NewRegistry(),
		start:   time.Now(),
	}
	s.clients = newClientRegistry(s.reg)
	s.SetLimits(cfg.Limits)
	for i := 0; i < cfg.Shards; i++ {
		m := newShardMetrics(s.reg, i, backend.Name, cfg.Shadows)
		// Each shard gets its own shadow templates so shadow predictors
		// report into that shard's recorders.
		shadows := make([]shadowBackend, len(shadowCfgs))
		copy(shadows, shadowCfgs)
		for j := range shadows {
			shadows[j].cfg.Recorder = m.shadowRec[shadows[j].b.Name]
		}
		sh := newShard(i, backend, cfg.Predictor, cfg.Faults, shadows, cfg.QueueLen, m)
		s.shards = append(s.shards, sh)
	}
	// Warm restart: restore checkpointed sessions before the shards
	// start, while their session maps are still private to this
	// goroutine.
	if cfg.CheckpointDir != "" {
		if err := s.loadCheckpoints(cfg.CheckpointDir); err != nil {
			ln.Close()
			return nil, err
		}
	}
	for _, sh := range s.shards {
		sh.start()
	}
	if cfg.CheckpointDir != "" {
		s.ckpt = newCheckpointer(s, cfg.CheckpointDir, cfg.CheckpointEvery)
	}
	s.registerMetrics()
	if cfg.AdminAddr != "" {
		admin, err := newAdminServer(cfg.AdminAddr, s)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.admin = admin
	}
	s.connWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound service address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Metrics returns the server's metric registry — the source behind the
// admin listener's /metrics endpoint, exposed for in-process embedding.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// AdminAddr returns the bound admin address, or nil when disabled.
func (s *Server) AdminAddr() net.Addr {
	if s.admin == nil {
		return nil
	}
	return s.admin.ln.Addr()
}

// shardFor maps a session to its shard. Stable for a fixed shard
// count, so a session keeps its predictor across reconnects.
func (s *Server) shardFor(session uint64) *shard {
	return s.shards[splitmix64(session)%uint64(len(s.shards))]
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.counters.Accepted.Add(1)
		s.counters.Active.Add(1)
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn runs one connection: a reader loop that parses frames and
// dispatches them to shards, plus a writer goroutine that serialises
// response frames. Responses may interleave across sessions; the
// request ID ties them back. Per-session order is preserved end to
// end: the reader dispatches in arrival order and each shard's queue
// is FIFO on a single goroutine.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		s.counters.Active.Add(-1)
	}()

	out := make(chan []byte, 64)
	var pending sync.WaitGroup // shard callbacks not yet delivered to out

	// Writer: drains out until closed. Write errors are ignored — the
	// reader will observe the dead connection and stop; pending shard
	// callbacks must still be consumed so shards never block on a dead
	// connection. Each frame rearms the write deadline: a peer that
	// stops reading fails the write instead of blocking this goroutine
	// (and, through the full channel behind it, a shard) forever.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriterSize(conn, s.cfg.WriteBufferSize)
		for payload := range out {
			if wt := s.cfg.WriteTimeout; wt > 0 {
				conn.SetWriteDeadline(time.Now().Add(wt))
			}
			if writeFrame(bw, payload) != nil {
				continue
			}
			// Flush when the channel momentarily empties, so pipelined
			// responses batch into few syscalls without extra latency.
			if len(out) == 0 {
				bw.Flush()
			}
		}
		bw.Flush()
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	var buf []byte
	var cl *clientState // resolved on first dispatch or OpHello
	for {
		if it := s.cfg.IdleTimeout; it > 0 {
			conn.SetReadDeadline(time.Now().Add(it))
		}
		payload, err := readFrame(br, buf)
		if err != nil {
			if errors.Is(err, ErrFrame) {
				s.counters.BadFrames.Add(1)
			}
			break
		}
		buf = payload // keep the grown buffer
		req, err := parseRequest(payload)
		if err != nil {
			s.counters.BadFrames.Add(1)
			break // framing no longer trustworthy
		}
		s.counters.Requests.Add(1)
		if req.op == OpHello {
			// Connection-scoped identity: handled here, never enqueued.
			// An invalid tag is a per-request rejection, not a framing
			// error — the stream is still aligned.
			if !validClientTag(req.client) {
				out <- encodeResponse(req, shardResp{err: ErrBadRequest})
				continue
			}
			cl = s.clients.get(req.client)
			out <- encodeResponse(req, shardResp{})
			continue
		}
		if cl == nil {
			cl = s.clients.get(defaultClientTag)
		}
		s.dispatch(req, cl, out, &pending)
	}

	conn.Close() // unblocks any in-flight write
	pending.Wait()
	close(out)
	<-writerDone
}

// dispatch routes one request to its shard, or answers it immediately
// with a typed failure (draining, throttled, overload). Every request
// is accounted under the connection's client tag; work-carrying ops
// must additionally clear admission control before touching a queue.
func (s *Server) dispatch(req request, cl *clientState, out chan []byte, pending *sync.WaitGroup) {
	cl.requests.Inc()
	cl.bytes.Add(uint64(req.wireBytes))
	if s.draining.Load() {
		s.counters.DrainRejects.Add(1)
		out <- encodeResponse(req, shardResp{err: ErrDraining})
		return
	}
	cost := admissionCost(&req)
	if retryAfter, ok := s.admit(cl, cost); !ok {
		s.counters.Throttled.Add(1)
		cl.throttles.Inc()
		out <- encodeResponse(req, shardResp{err: &ThrottledError{RetryAfter: retryAfter}})
		return
	}
	sh := s.shardFor(req.session)
	pending.Add(1)
	s.inflight.Add(1)
	t := task{req: req, done: func(resp shardResp) {
		out <- encodeResponse(req, resp)
		pending.Done()
		s.inflight.Done()
	}}
	if !sh.enqueue(t) {
		pending.Done()
		s.inflight.Done()
		cl.overloads.Inc()
		out <- encodeResponse(req, shardResp{err: ErrOverloaded})
		return
	}
	if cost > 0 {
		cl.rounds.Add(uint64(cost))
	}
}

// encodeResponse renders a shard response as a wire frame payload.
func encodeResponse(req request, resp shardResp) []byte {
	buf := appendResponseHeader(nil, req.op, req.reqID, statusOf(resp.err))
	if resp.err != nil {
		var te *ThrottledError
		if errors.As(resp.err, &te) {
			// Throttled responses carry the retry-after hint (ms,
			// rounded up so a sub-millisecond wait never encodes as 0).
			ms := (te.RetryAfter + time.Millisecond - 1) / time.Millisecond
			if ms < 1 {
				ms = 1
			}
			var b [4]byte
			le.PutUint32(b[:], uint32(min(ms, 1<<31)))
			buf = append(buf, b[:]...)
		}
		return buf
	}
	switch req.op {
	case OpOpen:
		var b [openRespBytes]byte
		le.PutUint32(b[:], resp.shard)
		le.PutUint64(b[4:], resp.lastSeq)
		buf = append(buf, b[:]...)
	case OpRestore:
		var b [4]byte
		le.PutUint32(b[:], resp.shard)
		buf = append(buf, b[:]...)
	case OpSnapshot:
		buf = append(buf, resp.blob...)
	case OpPredict:
		var b [predictionBytes]byte
		putPrediction(b[:], resp.pred)
		buf = append(buf, b[:]...)
	case OpUpdateBatch, OpPredictBatch:
		var b [batchRespBytes]byte
		le.PutUint32(b[:], resp.skipped)
		le.PutUint32(b[4:], resp.applied)
		le.PutUint32(b[8:], resp.correct)
		buf = append(buf, b[:]...)
		if req.op == OpPredictBatch {
			off := len(buf)
			buf = append(buf, make([]byte, len(resp.preds)*predictionBytes)...)
			for i := range resp.preds {
				putPrediction(buf[off+i*predictionBytes:], resp.preds[i])
			}
		}
	case OpStats:
		var b [8 + 2*statsBytes]byte
		le.PutUint32(b[:], resp.shard)
		le.PutUint32(b[4:], resp.sessions)
		putStats(b[8:], resp.sess)
		putStats(b[8+statsBytes:], resp.agg)
		buf = append(buf, b[:]...)
	}
	return buf
}

// Shutdown drains the server gracefully and offloads its sessions:
// stop accepting connections, reject new requests with ErrDraining,
// let every already-enqueued request finish, quiesce the shards, then
// snapshot every live session and stream it to the handoff peer (or
// spill it to the checkpoint directory). ctx bounds the in-flight
// drain; on expiry the remaining work is abandoned, but the offload
// still runs — session state is exactly what makes a drain worth
// waiting for.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ln.Close()

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain aborted: %w", ctx.Err())
	}
	s.quiesce()
	offErr := s.offload()
	s.Close()
	return errors.Join(err, offErr)
}

// quiesce stops all request processing: listener, checkpoint ticker,
// connections, then the shard goroutines. After quiesce the shard
// session maps are safe to read from the caller's goroutine. The
// checkpoint writer is still running (shard backlogs may hand it
// frames until the last shard stops); Close flushes and stops it.
func (s *Server) quiesce() {
	s.quiesceOnce.Do(func() {
		s.draining.Store(true)
		s.closeErr = s.ln.Close()
		if s.ckpt != nil {
			s.ckpt.stopTicker()
		}
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		s.connWG.Wait() // all dispatchers gone: shards see no new tasks
		for _, sh := range s.shards {
			sh.stop()
		}
	})
}

// Close tears the server down immediately: listener, connections,
// shard goroutines, checkpoint writer, admin listener. Safe to call
// more than once and after Shutdown. Unlike Shutdown it does not
// offload sessions (checkpointed state, if any, survives on disk).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.quiesce()
		if s.ckpt != nil {
			s.ckpt.close() // flush queued checkpoint writes
		}
		if s.admin != nil {
			s.admin.close()
		}
	})
	return s.closeErr
}
