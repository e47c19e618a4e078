package serve

import (
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pathtrace/internal/metrics"
	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
	"pathtrace/internal/trace"
)

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, srv *Server) string {
	t.Helper()
	resp, err := http.Get("http://" + srv.AdminAddr().String() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of the first sample line matching the
// series prefix (name plus any label subset, e.g. `ntpd_requests_total`
// or `ntpd_shard_traces_total{shard="0"}`).
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, l := range strings.Split(body, "\n") {
		if !strings.HasPrefix(l, series) {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", l, err)
		}
		return v
	}
	t.Fatalf("series %s not found in /metrics output:\n%s", series, body)
	return 0
}

// metricSum adds up the samples of a labelled metric across all its
// series, e.g. ntpd_shard_sessions over every shard.
func metricSum(t *testing.T, body, name string) float64 {
	t.Helper()
	var sum float64
	found := false
	for _, l := range strings.Split(body, "\n") {
		if !strings.HasPrefix(l, name+"{") {
			continue
		}
		v, err := strconv.ParseFloat(l[strings.LastIndexByte(l, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", l, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s not found in /metrics output:\n%s", name, body)
	}
	return sum
}

// addStats adds s into dst counter by counter.
func addStats(dst *predictor.Stats, s predictor.Stats) {
	dst.Predictions += s.Predictions
	dst.Correct += s.Correct
	dst.Cold += s.Cold
	dst.FromSecondary += s.FromSecondary
	dst.AltCorrect += s.AltCorrect
	dst.AltPresent += s.AltPresent
}

// TestMetricsEndpoint drives real traffic through a served session and
// asserts that /metrics exposes a well-formed Prometheus document whose
// counters and per-shard op histograms reflect the traffic.
func TestMetricsEndpoint(t *testing.T) {
	s := captureTestStream(t)
	srv := newTestServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 2})

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	shardID, _, err := cl.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]trace.Trace, 0, 500)
	cur := s.Cursor()
	var tr trace.Trace
	for len(batch) < cap(batch) && cur.Next(&tr) {
		batch = append(batch, tr)
	}
	if _, _, _, err := cl.UpdateBatch(1, batch); err != nil {
		t.Fatal(err)
	}
	// The shard updates its counters and publishes its snapshot before
	// it releases its lock, and the response is written after that, so
	// by the time the client returns the counters below are already
	// final.
	body := scrape(t, srv)

	// Structure: every sample line matches the exposition grammar.
	line := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? \S+$`)
	for _, l := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		if !line.MatchString(l) {
			t.Errorf("malformed exposition line: %q", l)
		}
	}

	shard := strconv.Itoa(int(shardID))
	if v := metricValue(t, body, `ntpd_shard_traces_total{shard="`+shard+`"}`); v != float64(len(batch)) {
		t.Errorf("shard traces = %v, want %d", v, len(batch))
	}
	if v := metricValue(t, body, `ntpd_predictor_rounds_total{shard="`+shard+`"}`); v != float64(len(batch)) {
		t.Errorf("predictor rounds = %v, want %d", v, len(batch))
	}
	correct := metricValue(t, body, `ntpd_predictor_correct_total{shard="`+shard+`"}`)
	misses := metricValue(t, body, `ntpd_predictor_miss_total{shard="`+shard+`"}`)
	if correct+misses != float64(len(batch)) {
		t.Errorf("correct (%v) + misses (%v) != rounds (%d)", correct, misses, len(batch))
	}
	// The Recorder mirrors the predictor's own counters exactly.
	st, err := cl.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(correct) != st.Session.Correct {
		t.Errorf("/metrics correct = %v, OpStats says %d", correct, st.Session.Correct)
	}

	// Per-shard, per-op latency histograms. Re-scrape so the stats op
	// issued just above is included.
	body = scrape(t, srv)
	for _, op := range []string{"open", "update_batch", "stats"} {
		series := `ntpd_shard_op_seconds_count{op="` + op + `",shard="` + shard + `"}`
		if v := metricValue(t, body, series); v < 1 {
			t.Errorf("%s = %v, want >= 1", series, v)
		}
	}
	if sum := metricValue(t, body, `ntpd_shard_op_seconds_sum{op="update_batch",shard="`+shard+`"}`); sum <= 0 {
		t.Errorf("update op latency sum = %v, want > 0", sum)
	}

	// Request counters moved: open + update + stats = 3 frames.
	if v := metricValue(t, body, "ntpd_requests_total"); v < 3 {
		t.Errorf("ntpd_requests_total = %v, want >= 3", v)
	}
}

// TestShadowEvalMetrics serves live traffic with a shadow backend and
// asserts the per-backend accuracy families: the primary's counters
// (role="primary") mirror the served predictor exactly, the shadow's
// (role="shadow") move by the same number of rounds, and the session's
// own stats stay bit-identical to an in-process replay — shadows
// measure, they never touch the serving path.
func TestShadowEvalMetrics(t *testing.T) {
	s := captureTestStream(t)
	srv := newTestServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 1, Shadows: []string{"tage"}})

	// In-process reference of the primary: shadows must not perturb it.
	ref := predictor.MustNew(headlineConfig())
	// Shadow reference: the same stream through a TAGE predictor of the
	// same geometry, which is exactly what the shard fans out to.
	shadowCfg := headlineConfig()
	shadowCfg.Backend = "tage"
	shadowRef := predictor.MustNew(shadowCfg)

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Open(1); err != nil {
		t.Fatal(err)
	}
	batch := make([]trace.Trace, 0, 256)
	cur := s.Cursor()
	var tr trace.Trace
	rounds := 0
	for i := 0; i < 8; i++ {
		batch = batch[:0]
		for len(batch) < cap(batch) && cur.Next(&tr) {
			batch = append(batch, tr)
		}
		if len(batch) == 0 {
			break
		}
		if _, _, _, err := cl.UpdateBatch(1, batch); err != nil {
			t.Fatal(err)
		}
		for j := range batch {
			ref.Predict()
			ref.Update(&batch[j])
			shadowRef.Predict()
			shadowRef.Update(&batch[j])
		}
		rounds += len(batch)
	}

	st, err := cl.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Session.Equal(ref.Stats()) {
		t.Errorf("shadowed session stats %+v, want bit-identical %+v", st.Session, ref.Stats())
	}

	body := scrape(t, srv)
	primary := `ntpd_backend_rounds_total{backend="hybrid",role="primary",shard="0"}`
	if v := metricValue(t, body, primary); v != float64(rounds) {
		t.Errorf("%s = %v, want %d", primary, v, rounds)
	}
	if v := metricValue(t, body, `ntpd_backend_correct_total{backend="hybrid",role="primary",shard="0"}`); v != float64(ref.Stats().Correct) {
		t.Errorf("primary backend correct = %v, want %d", v, ref.Stats().Correct)
	}
	shadow := `ntpd_backend_rounds_total{backend="tage",role="shadow",shard="0"}`
	if v := metricValue(t, body, shadow); v != float64(rounds) {
		t.Errorf("%s = %v, want %d", shadow, v, rounds)
	}
	sc := metricValue(t, body, `ntpd_backend_correct_total{backend="tage",role="shadow",shard="0"}`)
	sm := metricValue(t, body, `ntpd_backend_miss_total{backend="tage",role="shadow",shard="0"}`)
	if sc+sm != float64(rounds) {
		t.Errorf("shadow correct (%v) + miss (%v) != rounds (%d)", sc, sm, rounds)
	}
	// The shadow's counters are the real TAGE accuracy on this stream.
	if uint64(sc) != shadowRef.Stats().Correct {
		t.Errorf("shadow correct = %v, in-process tage says %d", sc, shadowRef.Stats().Correct)
	}
}

// TestServerRejectsBadShadows pins the construction-time validation:
// unknown and duplicate shadow names fail NewServer, not the first
// session open.
func TestServerRejectsBadShadows(t *testing.T) {
	if _, err := NewServer(Config{Addr: "127.0.0.1:0", Predictor: headlineConfig(), Shadows: []string{"nope"}}); err == nil {
		t.Error("unknown shadow backend accepted")
	}
	if _, err := NewServer(Config{Addr: "127.0.0.1:0", Predictor: headlineConfig(), Shadows: []string{"tage", "tage"}}); err == nil {
		t.Error("duplicate shadow backend accepted")
	}
}

// TestLoadgenHistogramReport runs a real loadgen pass and pins the
// regression the histogram rewrite fixes: quantiles must be ordered,
// within one bucket above the true samples (in particular p99 can no
// longer come back below p50 on small request counts), and the report's
// counters must agree with the histogram.
func TestLoadgenHistogramReport(t *testing.T) {
	s := captureTestStream(t)
	srv := newTestServer(t, Config{Shards: 2})

	reg := metrics.NewRegistry()
	rep, err := RunLoadgen(nil, LoadgenConfig{
		Addr:      srv.Addr().String(),
		Stream:    s,
		Conns:     2,
		Sessions:  4,
		Batch:     256,
		Verify:    true,
		Predictor: headlineConfig(),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatalf("RunLoadgen: %v", err)
	}
	if !rep.Verified {
		t.Error("loadgen did not verify server stats")
	}
	if rep.Latency == nil || rep.Latency.Count() != rep.Requests {
		t.Fatalf("latency histogram count = %v, want one sample per request (%d)",
			rep.Latency.Count(), rep.Requests)
	}
	if rep.Requests == 0 {
		t.Fatal("loadgen made no requests")
	}
	if !(rep.P50 <= rep.P90 && rep.P90 <= rep.P99 && rep.P99 <= rep.Max) {
		t.Errorf("quantiles not ordered: p50 %v p90 %v p99 %v max %v",
			rep.P50, rep.P90, rep.P99, rep.Max)
	}
	if rep.P50 <= 0 || rep.Max <= 0 {
		t.Errorf("degenerate latency report: p50 %v max %v", rep.P50, rep.Max)
	}
	// Max is tracked exactly, and nearest-rank quantiles never exceed it.
	if rep.Max != time.Duration(rep.Latency.Max()) {
		t.Errorf("report max %v != histogram max %v", rep.Max, time.Duration(rep.Latency.Max()))
	}

	// The run's histogram is also registered for export.
	var b strings.Builder
	if err := reg.Render(&b); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, b.String(), "loadgen_rtt_seconds_count"); v != float64(rep.Requests) {
		t.Errorf("exported loadgen_rtt_seconds_count = %v, want %d", v, rep.Requests)
	}
}

// TestMetricsExactAtEveryReply: the shard tallies predictor events in
// plain counters and publishes them once per request, before the
// reply. So right after every response — not only at the end — the
// ntpd_predictor_* families and the primary's ntpd_backend_* families
// must equal the summed session Stats, and the shadow's must equal an
// in-process replay of the same traces through the shadow backend.
func TestMetricsExactAtEveryReply(t *testing.T) {
	traces := streamTraces(t)
	srv := newTestServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 1, Shadows: []string{"tage"}})
	cl := dialT(t, srv)
	ids := []uint64{1, 2}
	shadowCfg := headlineConfig()
	shadowCfg.Backend = "tage"
	shadows := map[uint64]predictor.NextTracePredictor{}
	for _, id := range ids {
		if _, _, err := cl.Open(id); err != nil {
			t.Fatal(err)
		}
		shadows[id] = predictor.MustNew(shadowCfg)
	}
	preds := make([]predictor.Prediction, 256)
	off := 0
	for step, n := range []int{100, 7, 256, 1, 64, 180, 33, 90} {
		id := ids[step%2]
		batch := traces[off : off+n]
		off += n
		var err error
		if step%3 == 0 {
			_, _, _, err = cl.UpdateBatch(id, batch)
		} else {
			_, _, _, err = cl.PredictBatch(id, batch, preds)
		}
		if err != nil {
			t.Fatal(err)
		}
		predictor.UpdateBatch(shadows[id], batch)

		body := scrape(t, srv) // before anything else reaches the server
		var sum, shadow predictor.Stats
		for _, id := range ids {
			st, err := cl.Stats(id)
			if err != nil {
				t.Fatal(err)
			}
			addStats(&sum, st.Session)
			addStats(&shadow, shadows[id].Stats())
		}
		for _, c := range []struct {
			series string
			want   uint64
		}{
			{`ntpd_predictor_rounds_total{shard="0"}`, sum.Predictions},
			{`ntpd_predictor_correct_total{shard="0"}`, sum.Correct},
			{`ntpd_predictor_miss_total{shard="0"}`, sum.Mispredictions()},
			{`ntpd_predictor_cold_total{shard="0"}`, sum.Cold},
			{`ntpd_predictor_secondary_total{shard="0"}`, sum.FromSecondary},
			{`ntpd_backend_rounds_total{backend="hybrid",role="primary",shard="0"}`, sum.Predictions},
			{`ntpd_backend_correct_total{backend="hybrid",role="primary",shard="0"}`, sum.Correct},
			{`ntpd_backend_miss_total{backend="hybrid",role="primary",shard="0"}`, sum.Mispredictions()},
			{`ntpd_backend_rounds_total{backend="tage",role="shadow",shard="0"}`, shadow.Predictions},
			{`ntpd_backend_correct_total{backend="tage",role="shadow",shard="0"}`, shadow.Correct},
			{`ntpd_backend_miss_total{backend="tage",role="shadow",shard="0"}`, shadow.Mispredictions()},
		} {
			if got := metricValue(t, body, c.series); got != float64(c.want) {
				t.Errorf("step %d: %s = %v, want %d", step, c.series, got, c.want)
			}
		}
	}
}

// TestSnapshotMetrics: the snapshot families count every OpSnapshot
// answer, split full frames from deltas, and sum their bytes by kind:
// one tracked full frame, one untracked full frame of the same state,
// then one delta, which must be exactly the size of the delta an
// in-process predictor fed the same traces produces.
func TestSnapshotMetrics(t *testing.T) {
	traces := streamTraces(t)
	cfg := headlineConfig()
	srv := newTestServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 1, Predictor: cfg})
	cl := dialT(t, srv)
	const session = 1
	if _, _, err := cl.Open(session); err != nil {
		t.Fatal(err)
	}
	b, _ := predictor.ResolveBackend(cfg)
	ref := predictor.MustNew(cfg)
	first, second := traces[:300], traces[300:400]

	if _, _, _, err := cl.UpdateBatch(session, first); err != nil {
		t.Fatal(err)
	}
	predictor.UpdateBatch(ref, first)
	var h snapshot.Held
	gen, err := cl.RefreshSnapshot(session, 0, &h)
	if err != nil {
		t.Fatal(err)
	}
	full, err := cl.Snapshot(session)
	if err != nil {
		t.Fatal(err)
	}
	b.Mark(ref)
	if _, _, _, err := cl.UpdateBatch(session, second); err != nil {
		t.Fatal(err)
	}
	predictor.UpdateBatch(ref, second)
	if _, err := cl.RefreshSnapshot(session, gen, &h); err != nil {
		t.Fatal(err)
	}
	delta, err := snapshot.AppendDelta(nil, session, uint64(len(first)+len(second)), b.Name,
		func(dst []byte) ([]byte, error) { return b.AppendDelta(dst, ref) })
	if err != nil {
		t.Fatal(err)
	}

	body := scrape(t, srv)
	for _, c := range []struct {
		series string
		want   int
	}{
		{`ntpd_snapshot_ops_total{shard="0"}`, 3},
		{`ntpd_snapshot_delta_ops_total{shard="0"}`, 1},
		{`ntpd_snapshot_bytes_total{kind="full",shard="0"}`, 2 * len(full)},
		{`ntpd_snapshot_bytes_total{kind="delta",shard="0"}`, len(delta)},
	} {
		if got := metricValue(t, body, c.series); got != float64(c.want) {
			t.Errorf("%s = %v, want %d", c.series, got, c.want)
		}
	}
}

// metricsInventory lists what a registry renders as sorted
// "family type label-keys" lines, one per family: the shape dashboards,
// ntpstat and the CI greps depend on, without the values.
func metricsInventory(t *testing.T, reg *metrics.Registry) []string {
	t.Helper()
	var b strings.Builder
	if err := reg.Render(&b); err != nil {
		t.Fatal(err)
	}
	types := map[string]string{}
	keys := map[string]map[string]bool{}
	for _, l := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if f, ok := strings.CutPrefix(l, "# TYPE "); ok {
			name, kind, _ := strings.Cut(f, " ")
			types[name], keys[name] = kind, map[string]bool{}
			continue
		}
		if strings.HasPrefix(l, "#") {
			continue
		}
		name, labels, _ := strings.Cut(strings.Fields(l)[0], "{")
		if _, ok := types[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
					name = base
				}
			}
		}
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if k, _, ok := strings.Cut(kv, "="); ok {
				keys[name][k] = true
			}
		}
	}
	var out []string
	for name, kind := range types {
		var ks []string
		for k := range keys[name] {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out = append(out, strings.TrimSpace(name+" "+kind+" "+strings.Join(ks, ",")))
	}
	sort.Strings(out)
	return out
}

// TestMetricsInventory pins every family a fully configured server
// renders — checkpointing, two shards, a shadow backend and admission
// limits, after one client request — with its type and label keys.
// Values are the other tests' business; this one catches a family
// that is renamed, retyped, relabelled, dropped or added.
func TestMetricsInventory(t *testing.T) {
	srv := newTestServer(t, Config{
		Shards:        2,
		Shadows:       []string{"tage"},
		CheckpointDir: t.TempDir(),
		Limits:        Limits{PerClientRate: 1e6, GlobalRate: 1e7},
	})
	cl := dialT(t, srv)
	if _, _, err := cl.Open(1); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"ntpd_backend_correct_total counter backend,role,shard",
		"ntpd_backend_miss_total counter backend,role,shard",
		"ntpd_backend_rounds_total counter backend,role,shard",
		"ntpd_bad_frames_total counter",
		"ntpd_batch_frames_total counter shard",
		"ntpd_batch_size histogram le,shard",
		"ntpd_checkpoint_corrupt_total counter",
		"ntpd_checkpoint_restored_sessions gauge",
		"ntpd_checkpoint_write_errors_total counter",
		"ntpd_checkpoint_written_total counter",
		"ntpd_client_bytes_total counter client",
		"ntpd_client_overload_rejects_total counter client",
		"ntpd_client_requests_total counter client",
		"ntpd_client_rounds_total counter client",
		"ntpd_client_tags gauge",
		"ntpd_client_throttled_total counter client",
		"ntpd_connections_accepted_total counter",
		"ntpd_connections_active gauge",
		"ntpd_drain_lost_sessions_total counter",
		"ntpd_drain_rejects_total counter",
		"ntpd_drain_spilled_sessions_total counter",
		"ntpd_draining gauge",
		"ntpd_handoff_failed_total counter",
		"ntpd_handoff_retry_total counter",
		"ntpd_handoff_sessions_total counter",
		"ntpd_predictor_cold_total counter shard",
		"ntpd_predictor_correct_total counter shard",
		"ntpd_predictor_miss_total counter shard",
		"ntpd_predictor_replacements_total counter shard",
		"ntpd_predictor_rounds_total counter shard",
		"ntpd_predictor_secondary_total counter shard",
		"ntpd_requests_total counter",
		"ntpd_shard_batches_total counter shard",
		"ntpd_shard_op_seconds histogram le,op,shard",
		"ntpd_shard_overload_rejects_total counter shard",
		"ntpd_shard_queue_depth gauge shard",
		"ntpd_shard_requests_total counter shard",
		"ntpd_shard_sessions gauge shard",
		"ntpd_shard_traces_total counter shard",
		"ntpd_snapshot_bytes_total counter kind,shard",
		"ntpd_snapshot_delta_ops_total counter shard",
		"ntpd_snapshot_ops_total counter shard",
		"ntpd_snapshot_restore_rejects_total counter shard",
		"ntpd_snapshot_restores_total counter shard",
		"ntpd_throttled_total counter",
		"ntpd_update_dups_total counter shard",
		"ntpd_uptime_seconds gauge",
	}
	got := metricsInventory(t, srv.Metrics())
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("/metrics inventory:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
