package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pathtrace/internal/faults"
	"pathtrace/internal/metrics"
	"pathtrace/internal/predictor"
	"pathtrace/internal/stream"
	"pathtrace/internal/trace"
)

// LoadgenConfig drives one load-generation run: every session replays
// the full stream through the server, batch by batch.
type LoadgenConfig struct {
	Addr     string         // server address
	Stream   *stream.Stream // the recorded trace stream to replay
	Conns    int            // TCP connections (default 1)
	Sessions int            // sessions, spread round-robin over conns (default = Conns)
	Batch    int            // traces per UpdateBatch request (default 256, max MaxBatch)

	// Verify replays the stream once in process with the same predictor
	// configuration and requires every session's server-side stats to
	// be bit-identical to that replay.
	Verify bool

	// Predictor must match the server's configuration for Verify to
	// mean anything; it is only used for the in-process reference.
	Predictor predictor.Config

	// Faults mirrors the server's fault plan for the in-process
	// reference replay (nil for clean runs).
	Faults *faults.Config

	// SessionBase offsets session IDs, so repeated runs against one
	// server use fresh sessions (default 1).
	SessionBase uint64

	// Metrics, when non-nil, registers the run's round-trip latency
	// histogram as loadgen_rtt_seconds, so an embedding process can
	// export loadgen latency alongside its own series.
	Metrics *metrics.Registry

	// Every connection is a RetryClient of Addr, seeded by its index so
	// workers' backoff desynchronizes: it rides out overload, throttling
	// and redials. Failover also has it hold a frame of each session,
	// kept current by every ack (RetryConfig.SnapshotEvery 1), so the
	// run rides out a server that restarts empty or behind the acked
	// position and still verifies.
	Failover bool

	// ClientTag names this run to the server for per-client accounting
	// and admission control (announced on every connection). Running two
	// loadgens with different tags against a quota-limited server is the
	// fairness experiment: the server throttles each tag independently.
	ClientTag string
}

func (c LoadgenConfig) withDefaults() (LoadgenConfig, error) {
	if c.Stream == nil {
		return c, errors.New("serve: loadgen needs a stream")
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Sessions <= 0 {
		c.Sessions = c.Conns
	}
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.Batch > MaxBatch {
		return c, fmt.Errorf("serve: batch %d exceeds MaxBatch %d", c.Batch, MaxBatch)
	}
	if c.SessionBase == 0 {
		c.SessionBase = 1
	}
	return c, nil
}

// LoadgenReport is a run's outcome: volume, throughput, per-request
// latency quantiles, and the verification verdict.
//
// Quantiles are nearest-rank reads from a fixed-bucket histogram:
// never below the true sample quantile, and at most one bucket (12.5%
// relative) above it. Max is exact. The previous implementation sorted
// the raw samples and indexed int(q*(n-1)) — a truncating estimator
// that under-reports tail quantiles (for 100 samples, "p99" was the
// 99th of 100, and for 2 samples p99 was the MINIMUM); it also sorted
// the shared slice in place.
type LoadgenReport struct {
	Sessions           int
	Conns              int
	Batch              int
	Skipped            uint64        // traces deduped server-side (failover replays)
	Traces             uint64        // traces delivered (all sessions)
	Requests           uint64        // UpdateBatch calls
	Correct            uint64        // server-reported correct predictions
	Duration           time.Duration // wall clock for the replay phase
	TracesPerSec       float64
	P50, P90, P99, Max time.Duration      // UpdateBatch round-trip latency
	Latency            *metrics.Histogram // full RTT distribution (ns)
	Verified           bool               // stats checked bit-identical (when Verify)
}

func (r *LoadgenReport) String() string {
	s := fmt.Sprintf(
		"loadgen: %d traces in %.2fs over %d sessions / %d conns (update_batch)\n"+
			"  throughput: %.0f traces/sec at batch %d (%.0f req/sec)\n"+
			"  latency:    p50 %s  p90 %s  p99 %s  max %s\n"+
			"  accuracy:   %.2f%% of server predictions correct",
		r.Traces, r.Duration.Seconds(), r.Sessions, r.Conns,
		r.TracesPerSec, r.Batch, float64(r.Requests)/r.Duration.Seconds(),
		r.P50, r.P90, r.P99, r.Max,
		100*float64(r.Correct)/float64(max64(r.Traces, 1)))
	if r.Skipped > 0 {
		s += fmt.Sprintf("\n  dedup:      %d replayed traces skipped server-side", r.Skipped)
	}
	if r.Verified {
		s += "\n  verify:     server stats bit-identical to in-process replay"
	}
	return s
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// lgSession is one session's replay state on a connection worker.
type lgSession struct {
	id     uint64
	cursor *stream.Cursor
	batch  []trace.Trace
}

// RunLoadgen replays cfg.Stream through the server from cfg.Sessions
// sessions over cfg.Conns connections and reports throughput, latency
// percentiles and (optionally) the bit-identical-stats verification.
//
// Each connection worker round-robins its sessions one batch at a
// time, so all sessions progress together and the server sees
// concurrent mixed-session traffic rather than one session at a time.
func RunLoadgen(ctx context.Context, cfg LoadgenConfig) (*LoadgenReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	// Partition sessions across connections.
	snapEvery := 0
	if cfg.Failover {
		snapEvery = 1
	}
	clients := make([]*RetryClient, cfg.Conns)
	for i := range clients {
		if clients[i], err = NewRetryClient(RetryConfig{
			Addrs:         []string{cfg.Addr},
			Seed:          uint64(i + 1),
			ClientTag:     cfg.ClientTag,
			SnapshotEvery: snapEvery,
		}); err != nil {
			return nil, err
		}
		defer clients[i].Close()
	}

	perConn := make([][]*lgSession, cfg.Conns)
	for i := 0; i < cfg.Sessions; i++ {
		id := cfg.SessionBase + uint64(i)
		conn := i % cfg.Conns
		if _, _, err := clients[conn].Open(id); err != nil {
			return nil, fmt.Errorf("open session %d: %w", id, err)
		}
		perConn[conn] = append(perConn[conn], &lgSession{
			id:     id,
			cursor: cfg.Stream.Cursor(),
			batch:  make([]trace.Trace, 0, cfg.Batch),
		})
	}

	// The shared histogram replaces the old per-worker latency slices:
	// Observe is wait-free, so workers record directly with no mutex
	// and no per-sample allocation.
	rtt := &metrics.Histogram{}
	if cfg.Metrics != nil {
		rtt = cfg.Metrics.Histogram("loadgen_rtt_seconds",
			"UpdateBatch round-trip latency as seen by the load generator.", 1e-9, nil)
	}
	var (
		mu       sync.Mutex
		traces   uint64
		requests uint64
		correct  uint64
		skipped  uint64
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for ci, cl := range clients {
		sessions := perConn[ci]
		if len(sessions) == 0 {
			continue
		}
		wg.Add(1)
		go func(cl *RetryClient, sessions []*lgSession) {
			defer wg.Done()
			var nTraces, nReq, nCorrect, nSkipped uint64
			live := sessions
			for len(live) > 0 {
				if ctx != nil && ctx.Err() != nil {
					fail(ctx.Err())
					break
				}
				next := live[:0]
				for _, s := range live {
					// Refill the batch from the session's cursor. Traces
					// must be deep-copied out of the cursor's scratch: the
					// wire encoder reads them after the next cursor step.
					s.batch = s.batch[:0]
					var tr trace.Trace
					for len(s.batch) < cfg.Batch && s.cursor.Next(&tr) {
						s.batch = append(s.batch, tr)
					}
					if len(s.batch) == 0 {
						continue // session done
					}
					t0 := time.Now()
					skip, applied, corr, err := cl.UpdateBatch(s.id, s.batch)
					rtt.ObserveDuration(time.Since(t0))
					nReq++
					if err != nil {
						fail(fmt.Errorf("session %d: update: %w", s.id, err))
						return
					}
					// Every trace must be accounted for: applied now, or
					// deduped because a failover replay already applied it.
					if int(skip)+int(applied) != len(s.batch) {
						fail(fmt.Errorf("session %d: applied %d + skipped %d of %d", s.id, applied, skip, len(s.batch)))
						return
					}
					nTraces += uint64(applied)
					nSkipped += uint64(skip)
					nCorrect += uint64(corr)
					next = append(next, s)
				}
				live = next
			}
			mu.Lock()
			traces += nTraces
			requests += nReq
			correct += nCorrect
			skipped += nSkipped
			mu.Unlock()
		}(cl, sessions)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}

	rep := &LoadgenReport{
		Sessions: cfg.Sessions,
		Conns:    cfg.Conns,
		Batch:    cfg.Batch,
		Traces:   traces,
		Requests: requests,
		Correct:  correct,
		Skipped:  skipped,
		Duration: elapsed,
	}
	if elapsed > 0 {
		rep.TracesPerSec = float64(traces) / elapsed.Seconds()
	}
	rep.Latency = rtt
	rep.P50 = rtt.QuantileDuration(0.50)
	rep.P90 = rtt.QuantileDuration(0.90)
	rep.P99 = rtt.QuantileDuration(0.99)
	rep.Max = time.Duration(rtt.Max())

	if cfg.Verify {
		want, err := referenceStats(cfg.Stream, cfg.Predictor, cfg.Faults)
		if err != nil {
			return rep, err
		}
		for i := 0; i < cfg.Sessions; i++ {
			id := cfg.SessionBase + uint64(i)
			st, err := clients[i%cfg.Conns].Stats(id)
			if err != nil {
				return rep, fmt.Errorf("stats for session %d: %w", id, err)
			}
			if !st.Session.Equal(want) {
				return rep, fmt.Errorf(
					"session %d: server stats %+v differ from in-process replay %+v",
					id, st.Session, want)
			}
		}
		rep.Verified = true
	}
	return rep, nil
}

// referenceStats replays s once in process under the predictor
// configuration pcfg, with its own injector built from fc when fc is
// non-nil (pcfg's own Faults is ignored, as a server ignores it), and
// returns the exact stats a served session must reproduce.
func referenceStats(s *stream.Stream, pcfg predictor.Config, fc *faults.Config) (predictor.Stats, error) {
	pcfg.Faults = nil
	if fc != nil {
		pcfg.Faults = faults.New(*fc)
	}
	p, err := predictor.New(pcfg)
	if err != nil {
		return predictor.Stats{}, err
	}
	if _, _, err := s.Replay(nil, func(tr *trace.Trace) {
		p.Predict()
		p.Update(tr)
	}); err != nil {
		return predictor.Stats{}, err
	}
	return p.Stats(), nil
}
