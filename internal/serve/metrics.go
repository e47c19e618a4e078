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

// serverMetrics are the server-wide counters: connections, requests,
// rejections, and the crash-safety accounting. They are registered
// unconditionally, so with no checkpoint directory the crash-safety
// series still render as explicit zeros and dashboards and smoke greps
// never miss them.
type serverMetrics struct {
	accepted     *metrics.Counter
	active       *metrics.Gauge
	requests     *metrics.Counter
	badFrames    *metrics.Counter
	drainRejects *metrics.Counter
	throttled    *metrics.Counter

	// Warm restart (counted during NewServer).
	restored *metrics.Gauge
	corrupt  *metrics.Counter

	// Periodic checkpoints.
	ckptWritten   *metrics.Counter
	ckptWriteErrs *metrics.Counter

	// Drain offload (counted during Shutdown).
	spilled *metrics.Counter
	lost    *metrics.Counter
}

func newServerMetrics(reg *metrics.Registry) serverMetrics {
	return serverMetrics{
		accepted:     reg.Counter("ntpd_connections_accepted_total", "TCP connections accepted.", nil),
		active:       reg.Gauge("ntpd_connections_active", "TCP connections currently open.", nil),
		requests:     reg.Counter("ntpd_requests_total", "Frames parsed into requests.", nil),
		badFrames:    reg.Counter("ntpd_bad_frames_total", "Connections dropped on malformed frames.", nil),
		drainRejects: reg.Counter("ntpd_drain_rejects_total", "Requests rejected with ErrDraining.", nil),
		throttled:    reg.Counter("ntpd_throttled_total", "Requests rejected by admission control (ErrThrottled).", nil),

		restored: reg.Gauge("ntpd_checkpoint_restored_sessions", "Sessions restored from checkpoints at startup.", nil),
		corrupt:  reg.Counter("ntpd_checkpoint_corrupt_total", "Checkpoint files rejected as corrupt or incompatible.", nil),

		ckptWritten:   reg.Counter("ntpd_checkpoint_written_total", "Checkpoint files persisted.", nil),
		ckptWriteErrs: reg.Counter("ntpd_checkpoint_write_errors_total", "Checkpoints that failed to encode or write; the session is retried next sweep.", nil),

		spilled: reg.Counter("ntpd_drain_spilled_sessions_total", "Sessions spilled to the checkpoint dir at drain.", nil),
		lost:    reg.Counter("ntpd_drain_lost_sessions_total", "Sessions lost at drain (no checkpoint dir, or the spill failed).", nil),
	}
}

// shardMetrics is the per-shard instrumentation bundle: one latency
// histogram per request op, the predictor event recorders, and the
// shard's load and snapshot counters. Built with the shard; a request
// only touches pre-registered atomics and the recorders' tallies.
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

	requests  *metrics.Counter
	batches   *metrics.Counter // batches that trained at least one trace
	traces    *metrics.Counter // traces trained
	overloads *metrics.Counter
	sessions  *metrics.Gauge // len(shard.sessions), set under the shard lock

	snapshots      *metrics.Counter // OpSnapshot answers, full or delta
	deltaSnaps     *metrics.Counter // OpSnapshot answers served as deltas
	fullSnapBytes  *metrics.Counter
	deltaSnapBytes *metrics.Counter
	restores       *metrics.Counter // sessions installed via OpRestore
	restoreRejects *metrics.Counter
	dupUpdates     *metrics.Counter // batch frames that replayed applied sequences
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
	l := metrics.Labels{"shard": shard}
	const snapBytesHelp = "Snapshot bytes served per shard, by kind (full frame or delta)."
	m := &shardMetrics{
		batchSize:   reg.Histogram("ntpd_batch_size", "Traces carried per batch frame.", 1, l),
		batchFrames: reg.Counter("ntpd_batch_frames_total", "Batch frames (OpPredictBatch/OpUpdateBatch) processed.", l),
		rec: predRecorder{
			rounds:    reg.Counter("ntpd_predictor_rounds_total", "Predict/Update rounds served.", l),
			correct:   reg.Counter("ntpd_predictor_correct_total", "Correct predictions served.", l),
			misses:    reg.Counter("ntpd_predictor_miss_total", "Mispredictions served (incl. cold).", l),
			cold:      reg.Counter("ntpd_predictor_cold_total", "Rounds with no valid prediction.", l),
			secondary: reg.Counter("ntpd_predictor_secondary_total", "Predictions supplied by the hybrid secondary table.", l),
			replaced:  reg.Counter("ntpd_predictor_replacements_total", "Trained table entries displaced during training.", l),
			backend:   *newBackendRec(reg, primary, "primary", shard),
		},

		requests:  reg.Counter("ntpd_shard_requests_total", "Requests processed per shard.", l),
		batches:   reg.Counter("ntpd_shard_batches_total", "Update batches processed per shard.", l),
		traces:    reg.Counter("ntpd_shard_traces_total", "Traces applied per shard.", l),
		overloads: reg.Counter("ntpd_shard_overload_rejects_total", "Requests rejected with ErrOverloaded per shard.", l),
		sessions:  reg.Gauge("ntpd_shard_sessions", "Sessions owned by the shard.", l),

		snapshots:      reg.Counter("ntpd_snapshot_ops_total", "Session snapshot frames served per shard.", l),
		deltaSnaps:     reg.Counter("ntpd_snapshot_delta_ops_total", "Session snapshots served as deltas per shard.", l),
		fullSnapBytes:  reg.Counter("ntpd_snapshot_bytes_total", snapBytesHelp, metrics.Labels{"shard": shard, "kind": "full"}),
		deltaSnapBytes: reg.Counter("ntpd_snapshot_bytes_total", snapBytesHelp, metrics.Labels{"shard": shard, "kind": "delta"}),
		restores:       reg.Counter("ntpd_snapshot_restores_total", "Sessions installed via OpRestore per shard.", l),
		restoreRejects: reg.Counter("ntpd_snapshot_restore_rejects_total", "OpRestore frames rejected per shard.", l),
		dupUpdates:     reg.Counter("ntpd_update_dups_total", "Batch frames that replayed already-applied sequences per shard.", l),
	}
	for op, name := range opNames {
		if name == "" {
			continue
		}
		m.opSeconds[op] = reg.Histogram("ntpd_shard_op_seconds",
			"Shard-side request processing latency by op.", 1e-9,
			metrics.Labels{"shard": shard, "op": name})
	}
	for _, name := range shadows {
		m.shadowRec = append(m.shadowRec, newBackendRec(reg, name, "shadow", shard))
	}
	return m
}

// flush publishes every recorder's tallies to the registry.
func (m *shardMetrics) flush() {
	m.rec.flush()
	for _, r := range m.shadowRec {
		r.flush()
	}
}

// observe records one request's shard-side processing time.
func (m *shardMetrics) observe(op uint8, d time.Duration) {
	if int(op) < len(m.opSeconds) && m.opSeconds[op] != nil {
		m.opSeconds[op].ObserveDuration(d)
	}
}

// observeBatch records one batch frame's trace count.
func (m *shardMetrics) observeBatch(n int) {
	m.batchFrames.Inc()
	m.batchSize.Observe(int64(n))
}

// registerMetrics registers the values computed at render time: they
// are read from server state rather than counted on the data plane.
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
	reg.GaugeFunc("ntpd_client_tags", "Distinct client tags with accounting state.", nil,
		func() float64 { return float64(s.clients.len()) })
	for _, sh := range s.shards {
		reg.GaugeFunc("ntpd_shard_queue_depth", "Requests waiting on the shard.", metrics.Labels{"shard": strconv.Itoa(sh.id)},
			func() float64 { return float64(sh.waiting.Load()) })
	}
}
