package serve

import (
	"context"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
	"pathtrace/internal/trace"
)

// This file covers the one routine that takes a session to disk, as the
// periodic sweep and the drain both use it: a failed write is retried,
// a sweep holds one frame at a time, and the drain counts every session
// spilled or lost.

// manualCheckpointServer starts a server whose sweeps run only when the
// test calls srv.ckpt.sweep().
func manualCheckpointServer(t *testing.T, dir string) *Server {
	t.Helper()
	return newTestServer(t, Config{Shards: 1, CheckpointDir: dir, CheckpointEvery: time.Hour})
}

// blockCheckpoint makes every write of session id's checkpoint fail,
// by putting a directory where the write's temporary file goes, and
// returns the function that lifts the block.
func blockCheckpoint(t *testing.T, dir string, id uint64) func() {
	t.Helper()
	tmp := snapshotPath(dir, id) + ".tmp"
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.Remove(tmp); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedCheckpointWriteRetried: a session whose checkpoint write
// fails stays dirty, so the next sweep writes it although the session
// has not trained since.
func TestFailedCheckpointWriteRetried(t *testing.T) {
	s := captureTestStream(t)
	dir := t.TempDir()
	srv := manualCheckpointServer(t, dir)
	cl := dialT(t, srv)
	const session, batch = 3, 128
	if _, _, err := cl.Open(session); err != nil {
		t.Fatal(err)
	}
	sent := feedBatches(t, cl, session, s.Cursor(), batch, 10)

	unblock := blockCheckpoint(t, dir, session)
	srv.ckpt.sweep()
	if got := srv.metrics.ckptWriteErrs.Load(); got != 1 {
		t.Fatalf("write errors after a blocked sweep = %d, want 1", got)
	}
	if _, err := os.Stat(snapshotPath(dir, session)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file after a failed write: stat err = %v, want not-exist", err)
	}

	unblock()
	srv.ckpt.sweep()
	b, err := os.ReadFile(snapshotPath(dir, session))
	if err != nil {
		t.Fatalf("checkpoint not rewritten after the failed write: %v", err)
	}
	sess, err := snapshot.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(sent * batch); sess.ID != session || sess.LastSeq != want {
		t.Errorf("checkpoint holds session %d at seq %d, want %d at %d", sess.ID, sess.LastSeq, session, want)
	}
	if got := srv.metrics.ckptWritten.Load(); got != 1 {
		t.Errorf("checkpoints written = %d, want 1", got)
	}
}

// TestSweepStreamsFrames: a sweep holds one session's frame at a time,
// so what it allocates does not grow with the sessions it writes. Each
// session is trained on distinct synthetic IDs, so its frame carries
// tens of thousands of table entries. Encoding every frame before the
// first write would allocate all of them at once.
func TestSweepStreamsFrames(t *testing.T) {
	const (
		sessions = 16
		traces   = 20_000
		batch    = 256
		perFile  = 8 << 10 // paths, file handles and syscalls of one write
	)
	srv := manualCheckpointServer(t, t.TempDir())
	cl := dialT(t, srv)
	buf := make([]trace.Trace, 0, batch)
	x := uint64(1)
	for id := uint64(1); id <= sessions; id++ {
		if _, _, err := cl.Open(id); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < traces; n += batch {
			buf = buf[:0]
			for range batch {
				x = splitmix64(x)
				buf = append(buf, trace.Trace{ID: trace.ID(x & (1<<36 - 1))})
			}
			if _, _, _, err := cl.UpdateBatch(id, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	sh := srv.shards[0]
	var frame int
	for _, sess := range sh.sessions {
		b, err := sh.appendFrame(nil, sess)
		if err != nil {
			t.Fatal(err)
		}
		frame = max(frame, len(b))
	}

	// The first sweep sizes the checkpointer's buffer; the second is a
	// steady-state sweep of the same sessions, all dirty again.
	srv.ckpt.sweep()
	sh.mu.Lock()
	for _, sess := range sh.sessions {
		sess.dirty = true
	}
	sh.mu.Unlock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.ckpt.sweep()
	runtime.ReadMemStats(&after)

	if got := srv.metrics.ckptWritten.Load(); got != 2*sessions {
		t.Fatalf("checkpoints written = %d, want %d", got, 2*sessions)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	bound := uint64(2*frame + sessions*perFile)
	t.Logf("sweep of %d sessions allocated %d bytes; largest frame %d bytes", sessions, alloc, frame)
	if alloc >= bound {
		t.Errorf("sweep of %d sessions allocated %d bytes, want < %d (2 frames of %d bytes + %d per file)",
			sessions, alloc, bound, frame, perFile)
	}
}

// TestDrainLossAccounting: without a checkpoint dir the drain counts
// every live session lost and Shutdown succeeds; with one, a session
// whose spill fails is counted lost, the others are spilled, and
// Shutdown reports the loss.
func TestDrainLossAccounting(t *testing.T) {
	shutdown := func(t *testing.T, srv *Server) error {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
	open := func(t *testing.T, srv *Server, ids ...uint64) {
		t.Helper()
		cl := dialT(t, srv)
		for _, id := range ids {
			if _, _, err := cl.Open(id); err != nil {
				t.Fatal(err)
			}
		}
		cl.Close()
	}

	t.Run("no dir", func(t *testing.T) {
		srv := newTestServer(t, Config{Shards: 2})
		open(t, srv, 1, 2, 3)
		if err := shutdown(t, srv); err != nil {
			t.Fatalf("Shutdown without a checkpoint dir: %v, want nil", err)
		}
		var body strings.Builder
		if err := srv.Metrics().Render(&body); err != nil {
			t.Fatal(err)
		}
		if v := metricValue(t, body.String(), "ntpd_drain_lost_sessions_total"); v != 3 {
			t.Errorf("ntpd_drain_lost_sessions_total = %v, want 3", v)
		}
		if v := metricValue(t, body.String(), "ntpd_drain_spilled_sessions_total"); v != 0 {
			t.Errorf("ntpd_drain_spilled_sessions_total = %v, want 0", v)
		}
	})

	t.Run("failed spill", func(t *testing.T) {
		dir := t.TempDir()
		srv := manualCheckpointServer(t, dir)
		open(t, srv, 1, 2)
		blockCheckpoint(t, dir, 2)
		err := shutdown(t, srv)
		if err == nil || !strings.Contains(err.Error(), "1 sessions lost") {
			t.Fatalf("Shutdown with one failed spill: %v, want an error naming 1 lost session", err)
		}
		if got := srv.metrics.lost.Load(); got != 1 {
			t.Errorf("lost = %d, want 1", got)
		}
		if got := srv.metrics.spilled.Load(); got != 1 {
			t.Errorf("spilled = %d, want 1", got)
		}
		if _, err := os.Stat(snapshotPath(dir, 1)); err != nil {
			t.Errorf("spilled session's checkpoint: %v", err)
		}
	})
}

// TestUnboundedCheckpointWarmRestart: an unbounded primary checkpoints
// like any other. A periodic sweep writes its session, the drain spills
// it, a server restarted on the same dir restores it warm, and the
// session continues bit-identically to an uninterrupted in-process
// replay, across its tables' grows on both sides of the restart.
func TestUnboundedCheckpointWarmRestart(t *testing.T) {
	s := captureTestStream(t)
	pcfg := predictor.Config{Backend: "unbounded", Depth: 7, Hybrid: true, UseRHS: true}
	want, err := referenceStats(s, pcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const session, batch = 5, 128
	cfg := Config{Shards: 2, CheckpointDir: dir, CheckpointEvery: 20 * time.Millisecond, Predictor: pcfg}
	srvA := newTestServer(t, cfg)
	clA := dialT(t, srvA)
	if _, _, err := clA.Open(session); err != nil {
		t.Fatal(err)
	}
	cur := s.Cursor()
	sent := feedBatches(t, clA, session, cur, batch, int(s.Len())/batch/2)
	deadline := time.Now().Add(5 * time.Second)
	for srvA.metrics.ckptWritten.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srvA.metrics.ckptWritten.Load() == 0 {
		t.Fatal("no periodic checkpoint of the unbounded session")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	srvB := newTestServer(t, cfg)
	if got := srvB.metrics.restored.Load(); got != 1 {
		t.Fatalf("warm restart restored %d sessions, want 1", got)
	}
	clB := dialT(t, srvB)
	if _, lastSeq, err := clB.Open(session); err != nil || lastSeq != uint64(sent*batch) {
		t.Fatalf("Open after restart: lastSeq %d, err %v; want %d", lastSeq, err, sent*batch)
	}
	feedBatches(t, clB, session, cur, batch, -1)
	st, err := clB.Stats(session)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Session.Equal(want) {
		t.Errorf("restarted session stats %+v, want %+v", st.Session, want)
	}
}
