package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"pathtrace/internal/metrics"
	"pathtrace/internal/predictor"
	"pathtrace/internal/serve"
	"pathtrace/internal/stream"
	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

// servingPredictor is ntpd's default serving configuration: the
// paper's hybrid with the return history stack, depth 7, 64K entries.
var servingPredictor = predictor.Config{Depth: 7, IndexBits: 16, Hybrid: true, UseRHS: true}

// Every serving workload runs two shards and two client connections,
// one per processor.
const (
	shards = 2
	conns  = 2
)

// servingSpec shapes one serving workload's traffic.
type servingSpec struct {
	batch    int
	sessions int    // 0: the scale's fanout session count
	mixed    bool   // each session draws its benchmark from all six, not just go
	op       string // client call per request
	// miss_pct counts the served outcome of every session's leading
	// traces: missPasses whole passes over its stream when set (the
	// start offset then only rotates the traces counted), else
	// missBatches batches. The seed fixes those traces, so miss_pct
	// does not depend on how fast a run went; warm-up lasts until
	// every session has sent them.
	missPasses, missBatches int
}

// countedTraces is how many leading traces of a session replaying s
// miss_pct counts.
func (spec servingSpec) countedTraces(s *stream.Stream) uint64 {
	if spec.missPasses > 0 {
		return uint64(spec.missPasses * s.Len())
	}
	return uint64(spec.missBatches * spec.batch)
}

// sessionCount is how many sessions the workload opens at scale sc.
func (spec servingSpec) sessionCount(sc scale) int {
	if spec.sessions == 0 {
		return sc.fanoutSessions
	}
	return spec.sessions
}

var servingSpecs = map[string]servingSpec{
	// Two hot sessions at batch 256: the predictor kernel does most
	// of the work.
	"bulk": {batch: 256, sessions: 2, op: "update_batch", missPasses: 2},
	// Many cold sessions at batch 16 with predictions returned:
	// per-frame and per-session serving costs dominate.
	"fanout": {batch: 16, mixed: true, op: "predict_batch", missBatches: 32},
	// bulk through the retrying client that snapshots after every
	// acked batch (ntpd -loadgen -failover): writes beside updates.
	"durable": {batch: 256, sessions: 2, op: "retry.update_batch", missPasses: 2},
}

// session is one closed-loop fetch engine: it replays its benchmark's
// stream from a seeded start offset, wrapping at the end.
type session struct {
	id    uint64
	s     *stream.Stream
	off   int
	cur   *stream.Cursor
	buf   []trace.Trace
	preds []predictor.Prediction
	sent  uint64 // traces the server acknowledged, from off on

	// The served outcome of the session's first countUntil traces, in
	// whole batches.
	countUntil                     uint64
	countedApplied, countedCorrect uint64
}

// refill loads the session's next batch through the stream cursor.
func (s *session) refill() {
	n := s.cur.NextBatch(s.buf)
	for n < len(s.buf) {
		s.cur.Reset()
		n += s.cur.NextBatch(s.buf[n:])
	}
}

// position moves a fresh cursor to the session's start offset.
func (s *session) position() {
	s.cur = s.s.Cursor()
	for left := s.off; left > 0; {
		left -= s.cur.NextBatch(s.buf[:min(left, len(s.buf))])
	}
}

// benchConn is one client connection: a plain wire client, or the
// retrying client for the durable workload.
type benchConn struct {
	c  *serve.Client
	rc *serve.RetryClient
}

func (k benchConn) open(id uint64) error {
	var err error
	if k.rc != nil {
		_, _, err = k.rc.Open(id)
	} else {
		_, _, err = k.c.Open(id)
	}
	return err
}

func (k benchConn) send(s *session) (skipped, applied, correct uint32, err error) {
	switch {
	case k.rc != nil:
		return k.rc.UpdateBatch(s.id, s.buf)
	case s.preds != nil:
		return k.c.PredictBatch(s.id, s.buf, s.preds)
	default:
		return k.c.UpdateBatch(s.id, s.buf)
	}
}

func (k benchConn) stats(id uint64) (serve.SessionStats, error) {
	if k.rc != nil {
		return k.rc.Stats(id)
	}
	return k.c.Stats(id)
}

func (k benchConn) close() {
	if k.rc != nil {
		k.rc.Close()
	} else if k.c != nil {
		k.c.Close()
	}
}

// servingEnv is everything setup builds: captured streams, the server,
// the connections and their opened sessions.
type servingEnv struct {
	streams  []*stream.Stream
	srv      *serve.Server
	conns    []benchConn
	sessions [][]*session // per connection
	captured time.Duration
	instrs   uint64
	opens    []float64 // microseconds per Open
}

func (e *servingEnv) close() {
	for _, c := range e.conns {
		c.close()
	}
	e.conns = nil
	if e.srv != nil {
		e.srv.Close()
	}
}

// setupServing captures the workload's streams, starts the server and
// opens every session. The seed fixes each session's start offset and,
// for mixed workloads, its benchmark, identically on every repetition.
func setupServing(spec servingSpec, sc scale, seed int64, log *spanLog, parent uint64) (_ *servingEnv, err error) {
	h := log.begin("setup", parent, 0)
	defer log.end(h)
	env := &servingEnv{}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	names := []string{"go"}
	if spec.mixed {
		names = workload.Names()
	}
	for _, name := range names {
		w, _ := workload.ByName(name)
		c := log.begin("stream.capture", log.id(h), 0)
		t0 := time.Now()
		s, err := stream.Capture(nil, w, sc.limit, trace.DefaultConfig())
		env.captured += time.Since(t0)
		log.end(c)
		if err != nil {
			return nil, fmt.Errorf("capture %s: %w", name, err)
		}
		env.streams = append(env.streams, s)
		env.instrs += s.Instrs()
	}
	env.srv, err = serve.NewServer(serve.Config{Addr: "127.0.0.1:0", Shards: shards, Predictor: servingPredictor})
	if err != nil {
		return nil, err
	}
	addr := env.srv.Addr().String()
	for i := 0; i < conns; i++ {
		var k benchConn
		if spec.op == "retry.update_batch" {
			k.rc, err = serve.NewRetryClient(serve.RetryConfig{Addrs: []string{addr}, SnapshotEvery: 1, Seed: uint64(i + 1)})
		} else {
			k.c, err = serve.Dial(addr)
		}
		if err != nil {
			return nil, err
		}
		env.conns = append(env.conns, k)
	}
	n := spec.sessionCount(sc)
	// Every benchmark gets the same number of sessions (within one);
	// the seed only permutes which sessions replay which, so the mix,
	// and with it the served miss rate, does not drift with the seed.
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	env.sessions = make([][]*session, conns)
	for i := 0; i < n; i++ {
		st := env.streams[perm[i]%len(env.streams)]
		s := &session{id: uint64(i + 1), s: st, off: rng.Intn(st.Len()), buf: make([]trace.Trace, spec.batch),
			countUntil: spec.countedTraces(st)}
		if spec.op == "predict_batch" {
			s.preds = make([]predictor.Prediction, spec.batch)
		}
		k := env.conns[i%conns]
		o := log.begin("serve.client.open", log.id(h), 0)
		t0 := time.Now()
		err := k.open(s.id)
		env.opens = append(env.opens, float64(time.Since(t0))/1e3)
		log.end(o)
		if err != nil {
			return nil, fmt.Errorf("open session %d: %w", s.id, err)
		}
		env.sessions[i%conns] = append(env.sessions[i%conns], s)
	}
	return env, nil
}

// control is the state the measuring goroutine shares with workers.
type control struct {
	epoch     time.Time // request end times are offsets from it
	stop      atomic.Bool
	measuring atomic.Bool
	counted   atomic.Int64  // sessions that have sent the traces miss_pct counts
	window    atomic.Uint64 // span ID of the traced window in progress, 0 when untraced
	reqs      atomic.Uint64 // request IDs for spans
	abortOnce sync.Once
	aborted   chan struct{}
}

func (c *control) abort() { c.abortOnce.Do(func() { close(c.aborted) }) }

// sleep waits d, returning false early if a worker aborted the run.
func (c *control) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.aborted:
		return false
	}
}

// worker drives one connection's sessions in a closed loop: each
// session sends its next batch only after its previous answer, and the
// connection carries one request at a time.
type worker struct {
	conn     benchConn
	sessions []*session
	log      *spanLog
	opSpan   string

	traces atomic.Uint64 // acknowledged traces, read at window edges

	// Measured-phase tallies, read after the worker has stopped.
	done              []request
	attempted, failed int64
	applied           uint64
	err               error
}

// request is one measured round trip: when it ended, as an offset from
// the control epoch, and how long it took.
type request struct {
	end time.Duration
	us  float64
}

func (w *worker) run(ctl *control, ready *sync.WaitGroup) {
	for _, s := range w.sessions {
		s.position()
	}
	ready.Done()
	for !ctl.stop.Load() {
		for _, s := range w.sessions {
			if ctl.stop.Load() {
				return
			}
			var log *spanLog
			var req uint64
			parent := ctl.window.Load()
			if parent != 0 {
				log, req = w.log, ctl.reqs.Add(1)
			}
			h := log.begin("stream.next_batch", parent, req)
			s.refill()
			log.end(h)
			if err := w.roundTrip(ctl, s, log, parent, req); err != nil {
				w.err = err
				ctl.abort()
				return
			}
		}
	}
}

// roundTrip sends one batch until the server takes it. Overloaded and
// throttled answers reject the batch before the predictor sees it, so
// resending the same batch keeps the session's stream order exact.
func (w *worker) roundTrip(ctl *control, s *session, log *spanLog, parent, req uint64) error {
	for {
		measuring := ctl.measuring.Load()
		h := log.begin(w.opSpan, parent, req)
		t0 := time.Now()
		skipped, applied, correct, err := w.conn.send(s)
		rtt := time.Since(t0)
		log.end(h)
		if measuring {
			w.attempted++
		}
		if errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrThrottled) {
			if measuring {
				w.failed++
			}
			time.Sleep(200 * time.Microsecond)
			continue
		}
		if err != nil {
			return fmt.Errorf("session %d: %w", s.id, err)
		}
		if int(skipped)+int(applied) != len(s.buf) {
			return fmt.Errorf("session %d: %d skipped + %d applied of %d", s.id, skipped, applied, len(s.buf))
		}
		if s.sent < s.countUntil {
			s.countedApplied += uint64(applied)
			s.countedCorrect += uint64(correct)
			if s.sent+uint64(len(s.buf)) >= s.countUntil {
				ctl.counted.Add(1)
			}
		}
		s.sent += uint64(len(s.buf))
		w.traces.Add(uint64(applied))
		if measuring {
			w.done = append(w.done, request{end: t0.Add(rtt).Sub(ctl.epoch), us: float64(rtt) / 1e3})
			w.applied += uint64(applied)
		}
		return nil
	}
}

// edge is the state at one window edge.
type edge struct {
	at     time.Duration // offset from the control epoch
	traces uint64
	cpu    time.Duration
	traced bool // the window ending here recorded spans
}

// window is what one measured window of traffic produced.
type window struct {
	traces, seconds, cpuNs float64
	rtts                   []float64 // microseconds, of the round trips that ended in it
	traced                 bool
}

func (w window) tps() float64 { return w.traces / w.seconds }

// load is what one measured phase of closed-loop traffic produced.
type load struct {
	windows           []window
	seconds           float64 // measured wall time
	attempted, failed int64
	applied           uint64
	before, after     *metrics.Snapshot // server registry at the phase edges
	mem0, mem1        memSnap
	liveHeap          uint64 // after a forced GC, less the request buffers
}

// runLoad starts one worker per connection, warms up for the scale's
// warm-up and until every session has sent the traces miss_pct counts,
// and measures in windows; a traced run records spans in every other
// window. It returns once the workers have stopped.
func runLoad(env *servingEnv, spec servingSpec, rc runConfig, tr *tracer, log *spanLog, parent uint64) (*load, error) {
	ctl := &control{epoch: time.Now(), aborted: make(chan struct{})}
	workers := make([]*worker, conns)
	nSessions := 0
	var ready, done sync.WaitGroup
	for i := range workers {
		workers[i] = &worker{conn: env.conns[i], sessions: env.sessions[i], log: tr.log(),
			opSpan: "serve.client." + spec.op, done: make([]request, 0, 1<<16)}
		nSessions += len(env.sessions[i])
		ready.Add(1)
		done.Add(1)
		go func(w *worker) {
			defer done.Done()
			w.run(ctl, &ready)
		}(workers[i])
	}
	ready.Wait()
	sample := func(traced bool) edge {
		var n uint64
		for _, w := range workers {
			n += w.traces.Load()
		}
		return edge{at: time.Since(ctl.epoch), traces: n, cpu: cpuTime(), traced: traced}
	}

	ld := &load{}
	ok := ctl.sleep(rc.sc.warmup)
	for ok && ctl.counted.Load() < int64(nSessions) {
		ok = ctl.sleep(10 * time.Millisecond)
	}
	before, errBefore := scrape(env.srv.Metrics())
	ld.mem0 = readMem()
	edges := []edge{sample(false)}
	ctl.measuring.Store(true)
	n := windowCount(rc.measure)
	for i := 0; ok && i < n; i++ {
		traced := rc.trace && i%2 == 0
		h := -1
		if traced {
			h = log.begin("measure", parent, 0)
			ctl.window.Store(log.id(h))
		}
		ok = ctl.sleep(rc.measure / time.Duration(n))
		ctl.window.Store(0)
		log.end(h)
		edges = append(edges, sample(traced))
	}
	ctl.measuring.Store(false)
	after, errAfter := scrape(env.srv.Metrics())
	ld.mem1 = readMem()
	ctl.stop.Store(true)
	done.Wait()

	var benchBytes uint64
	for _, w := range workers {
		w.log.flush()
		if w.err != nil {
			return nil, w.err
		}
		ld.attempted += w.attempted
		ld.failed += w.failed
		ld.applied += w.applied
		benchBytes += uint64(cap(w.done)) * uint64(unsafe.Sizeof(request{}))
	}
	if err := errors.Join(errBefore, errAfter); err != nil {
		return nil, err
	}
	if ld.applied == 0 {
		return nil, fmt.Errorf("no request completed while measuring")
	}
	ld.before, ld.after = before, after
	ld.liveHeap = liveHeapBytes() - benchBytes

	ld.windows = make([]window, len(edges)-1)
	for i := range ld.windows {
		a, b := edges[i], edges[i+1]
		ld.windows[i] = window{traces: float64(b.traces - a.traces), seconds: (b.at - a.at).Seconds(),
			cpuNs: float64(b.cpu - a.cpu), traced: b.traced}
	}
	for _, w := range workers {
		for _, r := range w.done {
			// The first window whose closing edge is at or after the end.
			i := sort.Search(len(ld.windows), func(i int) bool { return edges[i+1].at >= r.end })
			if i < len(ld.windows) && r.end > edges[0].at {
				ld.windows[i].rtts = append(ld.windows[i].rtts, r.us)
			}
		}
	}
	ld.seconds = (edges[len(edges)-1].at - edges[0].at).Seconds()
	return ld, nil
}

func runServing(name string, rc runConfig) (*outcome, error) {
	spec := servingSpecs[name]
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	log := tr.log()
	root := log.begin("workload", 0, 0)
	o := newOutcome()
	o.tr = tr

	var env *servingEnv
	var setups []float64
	for rep := 0; rep < rc.sc.setupReps; rep++ {
		if env != nil {
			env.close()
		}
		// Every repetition starts from the same memory state: fresh
		// pages from the OS, as the first one gets.
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		env, err = setupServing(spec, rc.sc, rc.seed, log, log.id(root))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()
	o.streams = env.streams
	nSessions := 0
	for _, ss := range env.sessions {
		nSessions += len(ss)
	}
	fmt.Fprintf(rc.log, "info setups s:%s\n", fmtList(setups, "%.4f"))
	fmt.Fprintf(rc.log, "info load: closed loop, %d connections with one request in flight each, %d sessions round-robin over them, batch %d via %s, %d shards, GOMAXPROCS %d\n",
		conns, nSessions, spec.batch, spec.op, shards, runtime.GOMAXPROCS(0))

	ld, err := runLoad(env, spec, rc, tr, log, log.id(root))
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = ld.attempted, ld.failed
	var tps, cost, allRTT, tpsTraced, tpsUntraced []float64
	for _, w := range ld.windows {
		tps = append(tps, w.tps())
		cost = append(cost, w.seconds/w.traces)
		allRTT = append(allRTT, w.rtts...)
		if w.traced {
			tpsTraced = append(tpsTraced, w.tps())
		} else {
			tpsUntraced = append(tpsUntraced, w.tps())
		}
	}
	fast := fastest(cost)
	var fastTPS, fastCPU, fastRTT []float64
	for _, i := range fast {
		w := ld.windows[i]
		fastTPS = append(fastTPS, w.tps())
		fastCPU = append(fastCPU, w.cpuNs/w.traces)
		fastRTT = append(fastRTT, w.rtts...)
	}
	if len(fastRTT) == 0 {
		return nil, fmt.Errorf("no round trip ended in the fastest windows")
	}
	var counted, countedCorrect uint64
	for _, ss := range env.sessions {
		for _, s := range ss {
			counted += s.countedApplied
			countedCorrect += s.countedCorrect
		}
	}
	o.e2e = map[string]float64{
		"traces_per_s": median(fastTPS),
		"rtt_mean_us":  mean(fastRTT),
		"setup_s":      median(setups),
		"live_heap_mb": float64(ld.liveHeap) / (1 << 20),
		"miss_pct":     100 * float64(counted-countedCorrect) / float64(counted),
	}
	rttP99, cpuPerTrace := quantile(fastRTT, 0.99), median(fastCPU)
	o.samples = map[string]int{"windows": len(tps), "fast_windows": len(fast), "rtt": len(fastRTT),
		"rtt_all": len(allRTT), "setup_reps": len(setups), "sessions": nSessions, "miss_traces": int(counted)}
	fmt.Fprintf(rc.log, "info samples: %d windows of %s, timings from the fastest %d; %d round trips in those (the rtt_p99_us sample count) of %d measured; %d set-ups; miss_pct over the first %d traces the sessions sent\n",
		len(tps), rc.measure/time.Duration(len(tps)), len(fast), len(fastRTT), len(allRTT), len(setups), counted)
	fmt.Fprintf(rc.log, "info windows traces_per_s:%s\n", fmtList(tps, "%.0f"))
	fmt.Fprintf(rc.log, "info unbounded: rtt_p99_us %.3f over %d round trips, cpu_ns_per_trace %.3f (per-layer serve.client.rtt_p99_us and runtime.cpu_ns_per_trace)\n",
		rttP99, len(fastRTT), cpuPerTrace)
	wall := ld.seconds
	rttP50 := quantile(allRTT, 0.50)

	// Per-layer numbers timed from outside: server registry deltas,
	// runtime counters, set-up timings and spans.
	before, after := ld.before, ld.after
	busy := histDelta(before, after, "ntpd_shard_op_seconds")
	rounds := counterDelta(before, after, "ntpd_predictor_rounds_total")
	if histCount(busy) == 0 || rounds == 0 {
		return nil, fmt.Errorf("server metrics show no shard work while measuring")
	}
	busyP50 := histQuantile(busy, 0.50) / 1e3
	o.layer = map[string]float64{
		"predictor.cold_frac":         counterDelta(before, after, "ntpd_predictor_cold_total") / rounds,
		"predictor.secondary_frac":    counterDelta(before, after, "ntpd_predictor_secondary_total") / rounds,
		"predictor.replace_frac":      counterDelta(before, after, "ntpd_predictor_replacements_total") / rounds,
		"serve.shard.busy_us_p50":     busyP50,
		"serve.shard.busy_us_p99":     histQuantile(busy, 0.99) / 1e3,
		"serve.shard.busy_frac":       counterDelta(before, after, "ntpd_shard_op_seconds_sum") / (shards * wall),
		"serve.outside_shard_us_p50":  rttP50 - busyP50,
		"serve.frames_per_s":          counterDelta(before, after, "ntpd_requests_total") / wall,
		"serve.batch_size_mean":       counterDelta(before, after, "ntpd_batch_size_sum") / counterDelta(before, after, "ntpd_batch_size_count"),
		"serve.overloads":             counterDelta(before, after, "ntpd_shard_overload_rejects_total"),
		"serve.throttled":             counterDelta(before, after, "ntpd_throttled_total"),
		"serve.update_dups":           counterDelta(before, after, "ntpd_update_dups_total"),
		"serve.client.open_us_p50":    median(env.opens),
		"serve.client.rtt_p99_us":     rttP99,
		"runtime.cpu_ns_per_trace":    cpuPerTrace,
		"stream.capture_ns_per_instr": float64(env.captured) / float64(env.instrs),
	}
	runtimeLayers(o.layer, ld.mem0, ld.mem1, float64(ld.attempted), float64(ld.applied))
	if rc.trace {
		mu, mt := median(tpsUntraced), median(tpsTraced)
		o.layer["trace_overhead_pct"] = 100 * (mu - mt) / mu
		snap, err := probeClientSnapshot(env.srv.Addr().String(), env.sessions[0][0].id, log, log.id(root))
		if err != nil {
			return nil, err
		}
		o.layer["serve.client.snapshot_us_p50"] = snap
	}

	if err := verifyServing(env, o, tr, log, log.id(root)); err != nil {
		return nil, err
	}
	log.end(root)
	log.flush()
	if rc.trace {
		for _, lt := range selfTimes(tr.spans) {
			if lt.Name == "stream.next_batch" {
				o.layer["stream.next_batch_ns_per_trace"] = float64(lt.Total) / float64(lt.Count*spec.batch)
			}
		}
		if d := tr.dropped.Load(); d > 0 {
			fmt.Fprintf(rc.log, "info spans: %d dropped past the per-goroutine cap\n", d)
		}
	}
	return o, nil
}

// verifyServing fetches every session's final Stats, shuts the server
// down, and requires each to be bit-identical to a scalar in-process
// replay of exactly the traces that session sent: same start offset,
// same wrap, same count.
func verifyServing(env *servingEnv, o *outcome, tr *tracer, log *spanLog, parent uint64) error {
	h := log.begin("verify", parent, 0)
	defer log.end(h)
	type check struct {
		s      *session
		served predictor.Stats
	}
	var checks []check
	for ci, ss := range env.sessions {
		for _, s := range ss {
			c := log.begin("serve.client.stats", log.id(h), 0)
			st, err := env.conns[ci].stats(s.id)
			log.end(c)
			if err != nil {
				return fmt.Errorf("stats for session %d: %w", s.id, err)
			}
			checks = append(checks, check{s, st.Session})
		}
	}
	// The reference predictors reuse the memory the server held.
	env.close()
	runtime.GC()
	debug.FreeOSMemory()
	// Decoded once, so the replays time the predictor, not the decoder.
	decoded := map[*stream.Stream][]trace.Trace{}
	for _, s := range env.streams {
		decoded[s] = make([]trace.Trace, s.Len())
		s.Cursor().NextBatch(decoded[s])
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	next := atomic.Int64{}
	errs := make([]error, conns)
	logs := make([]*spanLog, conns)
	for g := 0; g < conns; g++ {
		logs[g] = tr.log()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(checks) {
					return
				}
				c := checks[i]
				r := logs[g].begin("reference.replay", log.id(h), 0)
				want, err := referenceStats(c.s, decoded[c.s.s])
				logs[g].end(r)
				if err != nil {
					errs[g] = err
					return
				}
				if !c.served.Equal(want) {
					mu.Lock()
					o.mismatches = append(o.mismatches, fmt.Sprintf("session %d: served stats %+v, in-process replay %+v", c.s.id, c.served, want))
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, l := range logs {
		l.flush()
	}
	return errors.Join(errs...)
}

// referenceStats replays the session's sent traces, taken from its
// stream decoded in full, through a fresh predictor with the strict
// scalar Predict/Update alternation.
func referenceStats(s *session, traces []trace.Trace) (predictor.Stats, error) {
	p, err := predictor.New(servingPredictor)
	if err != nil {
		return predictor.Stats{}, err
	}
	i, n := s.off, len(traces)
	for k := uint64(0); k < s.sent; k++ {
		p.Predict()
		p.Update(&traces[i])
		if i++; i == n {
			i = 0
		}
	}
	return p.Stats(), nil
}

// probeClientSnapshot times Client.Snapshot of a live session over its
// own connection: the round trip the durable client adds to every ack.
func probeClientSnapshot(addr string, id uint64, log *spanLog, parent uint64) (float64, error) {
	h := log.begin("probe.client_snapshot", parent, 0)
	defer log.end(h)
	c, err := serve.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var us []float64
	for i := 0; i < 31; i++ {
		t0 := time.Now()
		if _, err := c.Snapshot(id); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), nil
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int64
	mismatches        []string
	e2e, layer        map[string]float64
	samples           map[string]int
	spans             []span
	tr                *tracer          // nil when untraced
	streams           []*stream.Stream // inputs, reused by the layer probes
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}
