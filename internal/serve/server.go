package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
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
	// (/healthz, /metrics, /limitz) on this address.
	AdminAddr string

	// Shards is the number of predictor shards (default: GOMAXPROCS).
	// Sessions are hashed to shards; a shard runs one request at a time,
	// under its lock, on the goroutine of the connection that read it.
	Shards int

	// QueueLen bounds the requests waiting on each shard (default 1024).
	// One more overloads: the request is rejected immediately with
	// ErrOverloaded rather than left to wait unboundedly.
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
	// every live session to this directory. Without it, a drain
	// discards its sessions. NewServer refuses a dir when the primary
	// backend cannot snapshot; shadows are never checkpointed.
	CheckpointDir string

	// CheckpointEvery is the periodic checkpoint interval (default 2s).
	CheckpointEvery time.Duration

	// Limits configures token-bucket admission control ahead of the
	// shards: per-client quotas keyed by the connection's OpHello
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
	// The session predictor config must not carry a shared injector:
	// injectors are stateful and not concurrency-safe, so they are
	// created per session from c.Faults instead.
	c.Predictor.Faults = nil
	return c
}

const (
	// writeTimeout bounds each response frame write. A peer that stops
	// reading would otherwise block its connection's goroutine forever.
	// Responses are written outside the shard lock, so such a peer never
	// stalls its shard.
	writeTimeout = 30 * time.Second

	// writeBufferSize sizes each connection's response write buffer.
	// Responses coalesce in it, and it is flushed whenever no further
	// whole request is already buffered on the connection — one syscall
	// per burst of pipelined responses rather than one per frame. A
	// response larger than the buffer is written through in pieces.
	writeBufferSize = 1 << 16
)

// Server hosts predictor shards behind a TCP listener.
type Server struct {
	cfg    Config
	ln     net.Listener
	shards []*shard
	admin  *adminServer
	reg    *metrics.Registry
	ckpt   *checkpointer // nil without a checkpoint directory
	start  time.Time

	draining atomic.Bool
	inflight sync.WaitGroup // requests read before the drain and not yet answered

	// Admission control: the active limits (swapped atomically on hot
	// reload), the global token bucket, and per-client-tag accounting.
	limits       atomic.Pointer[Limits]
	globalBucket tokenBucket
	clients      *clientRegistry

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup

	metrics serverMetrics

	quiesceOnce sync.Once
	closeOnce   sync.Once
	closeErr    error
}

// NewServer binds the listener(s), builds the shards and starts the
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
	// Checkpoints hold the primary's state only, so a primary that
	// cannot snapshot would fail every sweep and every drain spill.
	if cfg.CheckpointDir != "" && !backend.Snapshottable() {
		return nil, fmt.Errorf("serve: backend %q cannot snapshot, so it cannot checkpoint to %s", backend.Name, cfg.CheckpointDir)
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
		cfg:   cfg,
		ln:    ln,
		conns: map[net.Conn]struct{}{},
		reg:   metrics.NewRegistry(),
		start: time.Now(),
	}
	s.metrics = newServerMetrics(s.reg)
	s.clients = newClientRegistry(s.reg)
	s.SetLimits(cfg.Limits)
	for i := 0; i < cfg.Shards; i++ {
		m := newShardMetrics(s.reg, i, backend.Name, cfg.Shadows)
		// Each shard gets its own shadow templates so shadow predictors
		// report into that shard's recorders.
		shadows := make([]shadowBackend, len(shadowCfgs))
		copy(shadows, shadowCfgs)
		for j := range shadows {
			shadows[j].cfg.Recorder = m.shadowRec[j]
		}
		sh := newShard(i, backend, cfg.Predictor, cfg.Faults, shadows, cfg.QueueLen, m)
		s.shards = append(s.shards, sh)
	}
	// Warm restart: restore checkpointed sessions before serving, while
	// the session maps are still private to this goroutine.
	if cfg.CheckpointDir != "" {
		if err := s.loadCheckpoints(cfg.CheckpointDir); err != nil {
			ln.Close()
			return nil, err
		}
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
		s.metrics.accepted.Inc()
		s.metrics.active.Add(1)
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn runs one connection on one goroutine: read a request, run
// it to completion (on its shard, under the shard lock), write the
// response into the connection's buffer, and flush when no further
// whole request is already buffered. Responses therefore leave in
// request order, and per-session order is preserved end to end. The
// response is written after the shard lock is released, so a peer that
// stops reading blocks only its own connection. The connection owns a
// single request value whose buffers every request reuses.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		s.metrics.active.Add(-1)
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, writeBufferSize)
	defer bw.Flush()
	var (
		buf []byte
		req request
		cl  *clientState // resolved on first dispatch or OpHello
	)
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			if errors.Is(err, ErrFrame) {
				s.metrics.badFrames.Inc()
			}
			return
		}
		buf = payload // keep the grown buffer
		if err := parseRequest(&req, payload); err != nil {
			s.metrics.badFrames.Inc()
			return // framing no longer trustworthy
		}
		s.metrics.requests.Inc()
		// Shutdown waits for the requests read before the drain began,
		// until their answers are written. Later ones are answered
		// ErrDraining and not waited for, so no Add races its Wait.
		tracked := !s.draining.Load()
		if tracked {
			s.inflight.Add(1)
		}
		var out []byte
		switch {
		case req.op != OpHello:
			if cl == nil {
				cl = s.clients.get(defaultClientTag)
			}
			out = s.dispatch(&req, cl)
		case !validClientTag(req.client):
			// Connection-scoped identity, handled here. An invalid tag is
			// a per-request rejection, not a framing error — the stream
			// is still aligned.
			out = encodeResponse(&req, &shardResp{err: ErrBadRequest})
		default:
			cl = s.clients.get(req.client)
			out = encodeResponse(&req, &shardResp{})
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		err = writeFrame(bw, out)
		if err == nil && (s.draining.Load() || !frameBuffered(br)) {
			err = bw.Flush()
		}
		if tracked {
			s.inflight.Done()
		}
		if err != nil {
			return
		}
	}
}

// dispatch runs one request on its shard, or answers it with a typed
// failure (draining, throttled, overload), and returns the encoded
// response. Every request is accounted under the connection's client
// tag; work-carrying ops must additionally clear admission control
// before they may wait on a shard.
func (s *Server) dispatch(req *request, cl *clientState) []byte {
	cl.requests.Inc()
	cl.bytes.Add(uint64(req.wireBytes))
	if s.draining.Load() {
		s.metrics.drainRejects.Inc()
		return encodeResponse(req, &shardResp{err: ErrDraining})
	}
	cost := admissionCost(req)
	if retryAfter, ok := s.admit(cl, cost); !ok {
		s.metrics.throttled.Inc()
		cl.throttles.Inc()
		return encodeResponse(req, &shardResp{err: &ThrottledError{RetryAfter: retryAfter}})
	}
	var resp shardResp
	if !s.shardFor(req.session).run(req, &resp) {
		cl.overloads.Inc()
		return encodeResponse(req, &shardResp{err: ErrOverloaded})
	}
	// Counted before the reply, so a client holding its answer already
	// sees its rounds in /metrics.
	if cost > 0 {
		cl.rounds.Add(uint64(cost))
	}
	return encodeResponse(req, &resp)
}

// encodeResponse renders a shard response as a wire frame payload in
// req.resp, growing it as needed, and returns it. A response carrying
// a snapshot (OpSnapshot, a tracked batch) the shard already wrote
// there in full.
func encodeResponse(req *request, resp *shardResp) []byte {
	if resp.written {
		return req.resp
	}
	buf := appendResponseHeader(req.resp[:0], req.op, req.reqID, statusOf(resp.err))
	if resp.err != nil {
		var te *ThrottledError
		if errors.As(resp.err, &te) {
			// Throttled responses carry the retry-after hint (ms,
			// rounded up so a sub-millisecond wait never encodes as 0).
			ms := (te.RetryAfter + time.Millisecond - 1) / time.Millisecond
			if ms < 1 {
				ms = 1
			}
			buf = le.AppendUint32(buf, uint32(min(ms, 1<<31)))
		}
		req.resp = buf
		return buf
	}
	switch req.op {
	case OpOpen:
		buf = le.AppendUint32(buf, resp.shard)
		buf = le.AppendUint64(buf, resp.lastSeq)
	case OpRestore:
		buf = le.AppendUint32(buf, resp.shard)
	case OpUpdateBatch, OpPredictBatch:
		buf = appendBatchCounts(buf, resp)
		if req.op == OpPredictBatch {
			off := len(buf)
			buf = slices.Grow(buf, len(resp.preds)*predictionBytes)[:off+len(resp.preds)*predictionBytes]
			for i := range resp.preds {
				putPrediction(buf[off+i*predictionBytes:], resp.preds[i])
			}
		}
	case OpStats:
		buf = le.AppendUint32(buf, resp.shard)
		off := len(buf)
		buf = slices.Grow(buf, statsBytes)[:off+statsBytes]
		putStats(buf[off:], resp.sess)
	}
	req.resp = buf
	return buf
}

// appendBatchCounts appends a batch answer's counts.
func appendBatchCounts(buf []byte, resp *shardResp) []byte {
	buf = le.AppendUint32(buf, resp.skipped)
	buf = le.AppendUint32(buf, resp.applied)
	return le.AppendUint32(buf, resp.correct)
}

// Shutdown drains the server gracefully and offloads its sessions:
// stop accepting connections, reject new requests with ErrDraining,
// let every request already read finish and its answer be written,
// quiesce the shards, then spill every live session to the checkpoint
// directory, one frame at a time. ctx bounds the in-flight drain; on
// expiry the remaining work is abandoned, but the spill still runs —
// session state is exactly what makes a drain worth waiting for.
// Shutdown reports lost sessions as an error only when a checkpoint
// directory is set and a spill failed; without one, the sessions are
// discarded by design and counted in ntpd_drain_lost_sessions_total.
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

// quiesce stops all request processing: listener, checkpoint sweeps
// (waiting out a running one, writes included), connections, then the
// shards. After quiesce the shard session maps are safe to read from
// the caller's goroutine, and nothing else writes checkpoint files.
func (s *Server) quiesce() {
	s.quiesceOnce.Do(func() {
		s.draining.Store(true)
		s.closeErr = s.ln.Close()
		if s.ckpt != nil {
			s.ckpt.stop()
		}
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		s.connWG.Wait() // every connection goroutine gone: no request runs
		for _, sh := range s.shards {
			sh.stop()
		}
	})
}

// Close tears the server down immediately: listener, checkpoint
// sweeps, connections, shards, admin listener. Safe to call more than
// once and after Shutdown. Unlike Shutdown it does not offload
// sessions (checkpointed state, if any, survives on disk).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.quiesce()
		if s.admin != nil {
			s.admin.close()
		}
	})
	return s.closeErr
}
