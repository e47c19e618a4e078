package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"pathtrace/internal/predictor"
	"pathtrace/internal/stream"
	"pathtrace/internal/trace"
)

// streamTraces materialises the shared test stream into a flat slice.
func streamTraces(t testing.TB) []trace.Trace {
	t.Helper()
	s := captureTestStream(t)
	out := make([]trace.Trace, s.Len())
	for i := range out {
		s.At(i, &out[i])
	}
	return out
}

// TestBatchOpsBitIdentical drives the whole stream through
// OpPredictBatch and requires both the predictions and the final
// session stats to be bit-identical to an in-process scalar replay —
// the wire-level form of the batch-equals-scalar invariant.
func TestBatchOpsBitIdentical(t *testing.T) {
	traces := streamTraces(t)
	srv := newTestServer(t, Config{Shards: 2})

	ref := predictor.MustNew(headlineConfig())
	wantPreds := make([]predictor.Prediction, len(traces))
	for i := range traces {
		wantPreds[i] = ref.Predict()
		ref.Update(&traces[i])
	}

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const session = 7
	if _, _, err := cl.Open(session); err != nil {
		t.Fatal(err)
	}

	got := make([]predictor.Prediction, len(traces))
	const batch = 173 // deliberately odd: boundaries align with nothing
	for off := 0; off < len(traces); off += batch {
		end := min(off+batch, len(traces))
		skipped, applied, _, err := cl.PredictBatch(session, traces[off:end], got[off:end])
		if err != nil {
			t.Fatal(err)
		}
		if skipped != 0 || int(applied) != end-off {
			t.Fatalf("batch at %d: skipped %d applied %d of %d", off, skipped, applied, end-off)
		}
	}
	for i := range wantPreds {
		if got[i] != wantPreds[i] {
			t.Fatalf("prediction %d: server %+v, in-process %+v", i, got[i], wantPreds[i])
		}
	}

	st, err := cl.Stats(session)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Session.Equal(ref.Stats()) {
		t.Errorf("server stats %+v\nin-process  %+v\nnot bit-identical", st.Session, ref.Stats())
	}
}

// TestBatchSuffixDedup exercises the per-trace sequence dedup directly:
// overlapping, fully duplicate, and extending ranges must replay only
// the unseen suffix, and a range starting past the next sequence is
// refused with ErrSeqGap, leaving the predictor exactly where a
// single-application run would. Every overlapping frame counts once in
// ntpd_update_dups_total.
func TestBatchSuffixDedup(t *testing.T) {
	traces := streamTraces(t)
	if len(traces) < 400 {
		t.Fatalf("test stream too short: %d traces", len(traces))
	}
	srv := newTestServer(t, Config{Shards: 1})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const session = 9
	if _, _, err := cl.Open(session); err != nil {
		t.Fatal(err)
	}
	dups := func() uint64 { return srv.shardFor(session).metrics.dupUpdates.Load() }

	// [1,200] fresh.
	skipped, applied, _, err := cl.UpdateBatchSeq(session, 1, traces[:200])
	if err != nil || skipped != 0 || applied != 200 {
		t.Fatalf("fresh batch: skipped %d applied %d err %v", skipped, applied, err)
	}
	if got := dups(); got != 0 {
		t.Errorf("dup frames after a fresh batch = %d, want 0", got)
	}
	// [101,300]: first half duplicate, second half fresh.
	skipped, applied, _, err = cl.UpdateBatchSeq(session, 101, traces[100:300])
	if err != nil || skipped != 100 || applied != 100 {
		t.Fatalf("overlap batch: skipped %d applied %d err %v", skipped, applied, err)
	}
	if got := dups(); got != 1 {
		t.Errorf("dup frames after the overlapping batch = %d, want 1", got)
	}
	// [1,300]: wholly duplicate; nothing may train.
	skipped, applied, _, err = cl.UpdateBatchSeq(session, 1, traces[:300])
	if err != nil || skipped != 300 || applied != 0 {
		t.Fatalf("dup batch: skipped %d applied %d err %v", skipped, applied, err)
	}
	if got := dups(); got != 2 {
		t.Errorf("dup frames after the duplicate batch = %d, want 2", got)
	}
	// [302,400]: starts past 301, a gap; refused, and nothing may train.
	if _, _, _, err := cl.UpdateBatchSeq(session, 302, traces[301:400]); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap batch: err %v, want ErrSeqGap", err)
	}

	ref := predictor.MustNew(headlineConfig())
	for i := range traces[:300] {
		ref.Predict()
		ref.Update(&traces[i])
	}
	st, err := cl.Stats(session)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Session.Equal(ref.Stats()) {
		t.Errorf("after dedup replays: server stats %+v, want single-application %+v", st.Session, ref.Stats())
	}
}

// TestDuplicateUpdateAnsweredFromCache: resending a batch whose whole
// range the session has already acked (a retry after a "lost ack") is
// answered from the session's sequence watermark without touching the
// predictor — the exactly-once guarantee a retrying client leans on.
// Dedup matches sequences, not content: a fresh range carrying the
// same payload trains.
func TestDuplicateUpdateAnsweredFromCache(t *testing.T) {
	traces := streamTraces(t)
	srv := newTestServer(t, Config{Shards: 1})
	cl := dialT(t, srv)

	const session = 3
	if _, _, err := cl.Open(session); err != nil {
		t.Fatal(err)
	}
	batch := traces[:64]
	stats := func() predictor.Stats {
		t.Helper()
		st, err := cl.Stats(session)
		if err != nil {
			t.Fatal(err)
		}
		return st.Session
	}

	skipped, applied, _, err := cl.UpdateBatchSeq(session, 1, batch)
	if err != nil || skipped != 0 || int(applied) != len(batch) {
		t.Fatalf("first send: skipped %d applied %d err %v", skipped, applied, err)
	}
	st1 := stats()

	skipped, applied, correct, err := cl.UpdateBatchSeq(session, 1, batch) // retry after a "lost ack"
	if err != nil || int(skipped) != len(batch) || applied != 0 || correct != 0 {
		t.Fatalf("duplicate: skipped %d applied %d correct %d err %v", skipped, applied, correct, err)
	}
	st2 := stats()
	if !st2.Equal(st1) {
		t.Errorf("duplicate update changed predictor stats: %+v -> %+v", st1, st2)
	}
	if got := srv.shardFor(session).metrics.dupUpdates.Load(); got != 1 {
		t.Errorf("dup updates = %d, want 1", got)
	}

	// A *new* range with the same payload must apply in full.
	skipped, applied, _, err = cl.UpdateBatchSeq(session, uint64(len(batch))+1, batch)
	if err != nil || skipped != 0 || int(applied) != len(batch) {
		t.Fatalf("fresh range, same payload: skipped %d applied %d err %v", skipped, applied, err)
	}
	if st3 := stats(); st3.Equal(st2) {
		t.Error("next range did not advance the predictor")
	}
	if got := srv.shardFor(session).metrics.dupUpdates.Load(); got != 1 {
		t.Errorf("dup updates after a fresh range = %d, want 1", got)
	}
}

// TestBatchDedupAcrossReconnect is the crash-shaped version: a client
// that loses its connection after an ack and resends the same batch
// from a fresh connection (seeding its counter from Open's lastSeq)
// must train nothing twice.
func TestBatchDedupAcrossReconnect(t *testing.T) {
	traces := streamTraces(t)
	srv := newTestServer(t, Config{Shards: 1})
	const session = 11
	n := 128

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Open(session); err != nil {
		t.Fatal(err)
	}
	if _, applied, _, err := cl.UpdateBatch(session, traces[:n]); err != nil || int(applied) != n {
		t.Fatalf("first send: applied %d err %v", applied, err)
	}
	cl.Close() // ack received, then the connection dies

	// Reconnect. The pessimistic client assumes the ack was lost and
	// resends the whole batch with its original range.
	cl2, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	_, lastSeq, err := cl2.Open(session)
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != uint64(n) {
		t.Fatalf("reopen lastSeq = %d, want %d", lastSeq, n)
	}
	skipped, applied, _, err := cl2.UpdateBatchSeq(session, 1, traces[:n])
	if err != nil || int(skipped) != n || applied != 0 {
		t.Fatalf("resend: skipped %d applied %d err %v", skipped, applied, err)
	}
	// And a half-applied shape: resend the second half plus new work.
	skipped, applied, _, err = cl2.UpdateBatchSeq(session, uint64(n/2+1), traces[n/2:2*n])
	if err != nil || int(skipped) != n/2 || int(applied) != n {
		t.Fatalf("half resend: skipped %d applied %d err %v", skipped, applied, err)
	}

	ref := predictor.MustNew(headlineConfig())
	for i := range traces[:2*n] {
		ref.Predict()
		ref.Update(&traces[i])
	}
	st, err := cl2.Stats(session)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Session.Equal(ref.Stats()) {
		t.Errorf("after reconnect replays: server stats %+v, want %+v", st.Session, ref.Stats())
	}
}

// TestLoadgenBatchOps runs the load generator over the batched op with
// -verify semantics on.
func TestLoadgenBatchOps(t *testing.T) {
	s := captureTestStream(t)
	srv := newTestServer(t, Config{Shards: 2})
	rep, err := RunLoadgen(context.Background(), LoadgenConfig{
		Addr: srv.Addr().String(), Stream: s,
		Conns: 2, Sessions: 3, Batch: 64,
		Verify: true, Predictor: headlineConfig(),
		SessionBase: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatal("not verified")
	}
	if want := uint64(s.Len()) * 3; rep.Traces != want {
		t.Fatalf("%d traces delivered, want %d", rep.Traces, want)
	}
}

// TestRetryClientBatchSurvivesServerKill is the client half of
// zero-loss: with snapshot-per-ack recovery and a failover list, an
// abrupt server death mid-stream (no drain, no checkpoint dir — the
// sessions really are gone) is invisible to the caller. UpdateBatch
// streams ride the per-trace suffix dedup through the kill and end
// bit-identical to an uninterrupted replay.
func TestRetryClientBatchSurvivesServerKill(t *testing.T) {
	s := captureTestStream(t)
	want := refStats(t, s)
	srvA := newTestServer(t, Config{Shards: 2})
	srvB := newTestServer(t, Config{Shards: 2})

	rc, err := NewRetryClient(RetryConfig{
		Addrs:         []string{srvA.Addr().String(), srvB.Addr().String()},
		SnapshotEvery: 1,
		Seed:          43,
		BaseBackoff:   2 * time.Millisecond,
		MaxBackoff:    50 * time.Millisecond,
		MaxElapsed:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	const session, batch = 21, 64
	if _, _, err := rc.Open(session); err != nil {
		t.Fatal(err)
	}
	feed := func(n int, cur *stream.Cursor) int {
		var tr trace.Trace
		buf := make([]trace.Trace, 0, batch)
		sent := 0
		for n < 0 || sent < n {
			buf = buf[:0]
			for len(buf) < batch && cur.Next(&tr) {
				buf = append(buf, tr)
			}
			if len(buf) == 0 {
				break
			}
			skipped, applied, _, err := rc.UpdateBatch(session, buf)
			if err != nil {
				t.Fatalf("batch %d: %v", sent, err)
			}
			if int(skipped)+int(applied) != len(buf) {
				t.Fatalf("batch %d: skipped %d + applied %d of %d", sent, skipped, applied, len(buf))
			}
			sent++
		}
		return sent
	}
	cur := s.Cursor()
	feed(s.Len()/batch/2, cur)

	srvA.Close() // hard kill: no drain, session state on A is lost

	feed(-1, cur)
	st, err := rc.Stats(session)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Session.Equal(want) {
		t.Errorf("post-failover stats %+v, want %+v", st.Session, want)
	}
	if got := srvB.shardFor(session).metrics.restores.Load(); got == 0 {
		t.Error("survivor server saw no restore — failover path not exercised")
	}
}

// TestRetryClientOversizedBatchFailsFast: a batch above MaxBatch (or a
// PredictBatch with too few prediction slots) can never become valid,
// so it must fail with ErrBadRequest at once; a transport-class error
// would make RetryClient redial until MaxElapsed.
func TestRetryClientOversizedBatchFailsFast(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 1})
	rc, err := NewRetryClient(RetryConfig{
		Addrs:      []string{srv.Addr().String()},
		MaxElapsed: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	const session = 1
	if _, _, err := rc.Open(session); err != nil {
		t.Fatal(err)
	}
	dials := srv.metrics.accepted.Load()

	start := time.Now()
	_, _, _, err = rc.UpdateBatch(session, make([]trace.Trace, MaxBatch+1))
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized batch: err = %v, want ErrBadRequest", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("oversized batch took %v to fail: retried instead of failing fast", d)
	}
	if got := srv.metrics.accepted.Load(); got != dials {
		t.Errorf("connections accepted %d -> %d: the client redialed", dials, got)
	}

	cl := dialT(t, srv)
	if _, _, _, err := cl.PredictBatch(session, make([]trace.Trace, 2), make([]predictor.Prediction, 1)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("short preds: err = %v, want ErrBadRequest", err)
	}
}
