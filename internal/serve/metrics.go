package serve

import (
	"strconv"
	"time"

	"pathtrace/internal/metrics"
	"pathtrace/internal/predictor"
)

// predRecorder adapts a shard's predictor event stream onto registry
// counters. One recorder is shared by every session on the shard, and
// Record runs under the shard lock, so it tallies events in plain
// integers; flush adds the tallies to the atomic registry counters once
// per request, before the reply. The per-trace cost is a few plain
// increments, and nothing allocates.
type predRecorder struct {
	// backend tallies rounds and correct predictions. Its flush feeds
	// the per-backend accuracy families (role="primary"), and this
	// recorder's flush feeds rounds/correct/misses from the same
	// tallies, so the primary and its shadows are directly comparable
	// on one dashboard axis.
	backend backendRec

	n struct{ cold, secondary, replaced uint64 } // tallies since the last flush

	rounds    *metrics.Counter
	correct   *metrics.Counter
	misses    *metrics.Counter
	cold      *metrics.Counter
	secondary *metrics.Counter
	replaced  *metrics.Counter
}

func (r *predRecorder) Record(ev predictor.Event) {
	r.backend.Record(ev)
	if ev&predictor.EvCold != 0 {
		r.n.cold++
	}
	if ev&predictor.EvFromSecondary != 0 {
		r.n.secondary++
	}
	if ev&predictor.EvReplaced != 0 {
		r.n.replaced++
	}
}

// flush publishes the tallies and resets them.
func (r *predRecorder) flush() {
	rounds, correct := r.backend.n.rounds, r.backend.n.correct
	if rounds == 0 {
		return
	}
	r.backend.flush()
	r.rounds.Add(rounds)
	r.correct.Add(correct)
	r.misses.Add(rounds - correct)
	r.cold.Add(r.n.cold)
	r.secondary.Add(r.n.secondary)
	r.replaced.Add(r.n.replaced)
	r.n.cold, r.n.secondary, r.n.replaced = 0, 0, 0
}

// backendRec is the per-backend accuracy recorder behind the
// ntpd_backend_* families. The primary embeds one (role="primary");
// every shadow backend gets its own (role="shadow") and its sessions'
// evaluation predictors report into it via Config.Recorder. Like
// predRecorder it tallies under the shard lock and publishes on flush.
type backendRec struct {
	n struct{ rounds, correct uint64 } // tallies since the last flush

	rounds  *metrics.Counter
	correct *metrics.Counter
	misses  *metrics.Counter
}

func (r *backendRec) Record(ev predictor.Event) {
	r.n.rounds++
	if ev&predictor.EvCorrect != 0 {
		r.n.correct++
	}
}

// flush publishes the tallies and resets them.
func (r *backendRec) flush() {
	if r.n.rounds == 0 {
		return
	}
	r.rounds.Add(r.n.rounds)
	r.correct.Add(r.n.correct)
	r.misses.Add(r.n.rounds - r.n.correct)
	r.n.rounds, r.n.correct = 0, 0
}

func newBackendRec(reg *metrics.Registry, backend, role, shard string) *backendRec {
	l := metrics.Labels{"backend": backend, "role": role, "shard": shard}
	return &backendRec{
		rounds:  reg.Counter("ntpd_backend_rounds_total", "Predict/Update rounds evaluated per backend.", l),
		correct: reg.Counter("ntpd_backend_correct_total", "Correct predictions per backend.", l),
		misses:  reg.Counter("ntpd_backend_miss_total", "Mispredictions per backend (incl. cold).", l),
	}
}

// shardMetrics is the per-shard instrumentation bundle: one latency
// histogram per request op plus the predictor event recorders. Built at
// server startup; a request only touches pre-registered atomics and the
// recorders' tallies.
type shardMetrics struct {
	opSeconds [OpUpdateBatch + 1]*metrics.Histogram // indexed by op byte
	rec       predRecorder

	// Batch-shape instrumentation: how many traces each batch frame
	// carried, and how many batch frames arrived. Together with the
	// trace counters they answer the capacity question — is the fleet
	// sending batches big enough to amortize the frame and queue costs?
	batchSize   *metrics.Histogram
	batchFrames *metrics.Counter

	// shadowRec holds one accuracy recorder per shadow backend, in
	// Config.Shadows order; the shard wires each into its backend's
	// session shadow predictors.
	shadowRec []*backendRec
}

// opNames maps request op bytes to their metric label values.
var opNames = [OpUpdateBatch + 1]string{
	OpOpen:         "open",
	OpStats:        "stats",
	OpSnapshot:     "snapshot",
	OpRestore:      "restore",
	OpPredictBatch: "predict_batch",
	OpUpdateBatch:  "update_batch",
}

func newShardMetrics(reg *metrics.Registry, shardID int, primary string, shadows []string) *shardMetrics {
	shard := strconv.Itoa(shardID)
	m := &shardMetrics{}
	for op, name := range opNames {
		if name == "" {
			continue
		}
		m.opSeconds[op] = reg.Histogram("ntpd_shard_op_seconds",
			"Shard-side request processing latency by op.", 1e-9,
			metrics.Labels{"shard": shard, "op": name})
	}
	m.batchSize = reg.Histogram("ntpd_batch_size",
		"Traces carried per batch frame.", 1,
		metrics.Labels{"shard": shard})
	m.batchFrames = reg.Counter("ntpd_batch_frames_total",
		"Batch frames (OpPredictBatch/OpUpdateBatch) processed.",
		metrics.Labels{"shard": shard})
	l := metrics.Labels{"shard": shard}
	m.rec = predRecorder{
		rounds:    reg.Counter("ntpd_predictor_rounds_total", "Predict/Update rounds served.", l),
		correct:   reg.Counter("ntpd_predictor_correct_total", "Correct predictions served.", l),
		misses:    reg.Counter("ntpd_predictor_miss_total", "Mispredictions served (incl. cold).", l),
		cold:      reg.Counter("ntpd_predictor_cold_total", "Rounds with no valid prediction.", l),
		secondary: reg.Counter("ntpd_predictor_secondary_total", "Predictions supplied by the hybrid secondary table.", l),
		replaced:  reg.Counter("ntpd_predictor_replacements_total", "Trained table entries displaced during training.", l),
		backend:   *newBackendRec(reg, primary, "primary", shard),
	}
	for _, name := range shadows {
		m.shadowRec = append(m.shadowRec, newBackendRec(reg, name, "shadow", shard))
	}
	return m
}

// flush publishes every recorder's tallies to the registry. Nil-safe
// like observe.
func (m *shardMetrics) flush() {
	if m == nil {
		return
	}
	m.rec.flush()
	for _, r := range m.shadowRec {
		r.flush()
	}
}

// observe records one request's shard-side processing time.
func (m *shardMetrics) observe(op uint8, d time.Duration) {
	if m == nil {
		return
	}
	if int(op) < len(m.opSeconds) && m.opSeconds[op] != nil {
		m.opSeconds[op].ObserveDuration(d)
	}
}

// observeBatch records one batch frame's trace count. Nil-safe like
// observe, for tests that build shards without metrics.
func (m *shardMetrics) observeBatch(n int) {
	if m == nil {
		return
	}
	m.batchFrames.Inc()
	m.batchSize.Observe(int64(n))
}

// registerMetrics wires the server's pre-existing atomic counters into
// the registry as render-time reads, so the data plane is untouched.
func (s *Server) registerMetrics() {
	reg := s.reg
	reg.GaugeFunc("ntpd_uptime_seconds", "Seconds since the server started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("ntpd_draining", "1 while the server is draining, else 0.", nil,
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("ntpd_connections_accepted_total", "TCP connections accepted.", nil,
		func() uint64 { return s.counters.Accepted.Load() })
	reg.GaugeFunc("ntpd_connections_active", "TCP connections currently open.", nil,
		func() float64 { return float64(s.counters.Active.Load()) })
	reg.CounterFunc("ntpd_requests_total", "Frames parsed into requests.", nil,
		func() uint64 { return s.counters.Requests.Load() })
	reg.CounterFunc("ntpd_bad_frames_total", "Connections dropped on malformed frames.", nil,
		func() uint64 { return s.counters.BadFrames.Load() })
	reg.CounterFunc("ntpd_drain_rejects_total", "Requests rejected with ErrDraining.", nil,
		func() uint64 { return s.counters.DrainRejects.Load() })
	reg.CounterFunc("ntpd_throttled_total", "Requests rejected by admission control (ErrThrottled).", nil,
		func() uint64 { return s.counters.Throttled.Load() })
	reg.GaugeFunc("ntpd_client_tags", "Distinct client tags with accounting state.", nil,
		func() float64 { return float64(s.clients.len()) })

	// Crash-safety counters. Registered unconditionally — even with no
	// checkpoint directory or handoff peer they render as explicit
	// zeros, so dashboards and smoke greps never miss them.
	reg.GaugeFunc("ntpd_checkpoint_restored_sessions", "Sessions restored from checkpoints at startup.", nil,
		func() float64 { return float64(s.counters.RestoredSessions.Load()) })
	reg.CounterFunc("ntpd_checkpoint_corrupt_total", "Checkpoint files rejected as corrupt or incompatible.", nil,
		func() uint64 { return s.counters.CorruptSnapshots.Load() })
	reg.CounterFunc("ntpd_checkpoint_written_total", "Checkpoint files persisted.", nil,
		func() uint64 {
			if s.ckpt == nil {
				return 0
			}
			return s.ckpt.written.Load()
		})
	reg.CounterFunc("ntpd_checkpoint_write_errors_total", "Checkpoint writes that failed.", nil,
		func() uint64 {
			if s.ckpt == nil {
				return 0
			}
			return s.ckpt.writeErrs.Load()
		})
	reg.CounterFunc("ntpd_checkpoint_dropped_total", "Checkpoint frames dropped because the writer was behind.", nil,
		func() uint64 {
			if s.ckpt == nil {
				return 0
			}
			return s.ckpt.dropped.Load()
		})
	reg.CounterFunc("ntpd_handoff_sessions_total", "Sessions streamed to the handoff peer at drain.", nil,
		func() uint64 { return s.counters.HandoffSessions.Load() })
	reg.CounterFunc("ntpd_handoff_retry_total", "Handoff attempts that had to be retried.", nil,
		func() uint64 { return s.counters.HandoffRetries.Load() })
	reg.CounterFunc("ntpd_handoff_failed_total", "Sessions the handoff peer never accepted.", nil,
		func() uint64 { return s.counters.HandoffFailed.Load() })
	reg.CounterFunc("ntpd_drain_spilled_sessions_total", "Sessions spilled to the checkpoint dir at drain.", nil,
		func() uint64 { return s.counters.SpilledSessions.Load() })
	reg.CounterFunc("ntpd_drain_lost_sessions_total", "Sessions lost at drain (no peer, no dir, or writes failed).", nil,
		func() uint64 { return s.counters.LostSessions.Load() })

	for _, sh := range s.shards {
		sh := sh
		l := metrics.Labels{"shard": strconv.Itoa(sh.id)}
		reg.CounterFunc("ntpd_shard_requests_total", "Requests processed per shard.", l,
			func() uint64 { return sh.counters.Requests.Load() })
		reg.CounterFunc("ntpd_shard_batches_total", "Update batches processed per shard.", l,
			func() uint64 { return sh.counters.Batches.Load() })
		reg.CounterFunc("ntpd_shard_traces_total", "Traces applied per shard.", l,
			func() uint64 { return sh.counters.Traces.Load() })
		reg.CounterFunc("ntpd_shard_overload_rejects_total", "Requests rejected with ErrOverloaded per shard.", l,
			func() uint64 { return sh.counters.Overloads.Load() })
		reg.CounterFunc("ntpd_snapshot_ops_total", "Session snapshot frames served per shard.", l,
			func() uint64 { return sh.counters.Snapshots.Load() })
		reg.CounterFunc("ntpd_snapshot_delta_ops_total", "Session snapshots served as deltas per shard.", l,
			func() uint64 { return sh.counters.DeltaSnaps.Load() })
		const snapBytesHelp = "Snapshot bytes served per shard, by kind (full frame or delta)."
		reg.CounterFunc("ntpd_snapshot_bytes_total", snapBytesHelp, metrics.Labels{"shard": l["shard"], "kind": "full"},
			sh.counters.FullSnapBytes.Load)
		reg.CounterFunc("ntpd_snapshot_bytes_total", snapBytesHelp, metrics.Labels{"shard": l["shard"], "kind": "delta"},
			sh.counters.DeltaSnapBytes.Load)
		reg.CounterFunc("ntpd_snapshot_restores_total", "Sessions installed via OpRestore per shard.", l,
			func() uint64 { return sh.counters.Restores.Load() })
		reg.CounterFunc("ntpd_snapshot_restore_rejects_total", "OpRestore frames rejected per shard.", l,
			func() uint64 { return sh.counters.RestoreRejects.Load() })
		reg.CounterFunc("ntpd_update_dups_total", "Batch frames that replayed already-applied sequences per shard.", l,
			func() uint64 { return sh.counters.DupUpdates.Load() })
		reg.GaugeFunc("ntpd_shard_queue_depth", "Requests waiting on the shard.", l,
			func() float64 { return float64(sh.waiting.Load()) })
		reg.GaugeFunc("ntpd_shard_sessions", "Sessions owned by the shard.", l,
			func() float64 { return float64(sh.nsessions.Load()) })
	}
}
