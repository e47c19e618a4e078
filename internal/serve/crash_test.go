package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"testing"
	"time"

	"pathtrace/internal/faults"
	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
	"pathtrace/internal/stream"
	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

// This file covers the crash-safety cycle end to end: snapshot a live
// session over the wire, move it between servers, drain to disk and
// warm-restart from it, and reject corrupted checkpoints — in every case requiring the surviving
// predictor state to be bit-identical to an uninterrupted run. (Batch
// dedup and the retrying client's server-kill cycle live in
// batch_test.go.)

// feedBatches streams up to n batches of batchSize traces from cur
// into the session; n < 0 drains the cursor. Returns batches sent.
func feedBatches(t *testing.T, cl *Client, session uint64, cur *stream.Cursor, batchSize, n int) int {
	t.Helper()
	var tr trace.Trace
	batch := make([]trace.Trace, 0, batchSize)
	sent := 0
	for n < 0 || sent < n {
		batch = batch[:0]
		for len(batch) < batchSize && cur.Next(&tr) {
			batch = append(batch, tr)
		}
		if len(batch) == 0 {
			break
		}
		skipped, applied, _, err := cl.UpdateBatch(session, batch)
		if err != nil {
			t.Fatalf("update session %d (batch %d): %v", session, sent, err)
		}
		if skipped != 0 || int(applied) != len(batch) {
			t.Fatalf("update session %d: skipped %d, applied %d of %d", session, skipped, applied, len(batch))
		}
		sent++
	}
	return sent
}

// refStats is the uninterrupted in-process replay of s under the
// headline configuration, which every served run must reproduce
// exactly.
func refStats(t *testing.T, s *stream.Stream) predictor.Stats {
	t.Helper()
	st, err := referenceStats(s, headlineConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func dialT(t *testing.T, srv *Server) *Client {
	t.Helper()
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestSnapshotMovesSessionBetweenServers: half the stream on server A,
// OpSnapshot, OpRestore onto an unrelated server B (different shard
// count), the other half on B — stats bit-identical to no move at all.
func TestSnapshotMovesSessionBetweenServers(t *testing.T) {
	s := captureTestStream(t)
	want := refStats(t, s)
	srvA := newTestServer(t, Config{Shards: 2})
	srvB := newTestServer(t, Config{Shards: 3})

	const session, batch = 7, 128
	clA := dialT(t, srvA)
	if _, _, err := clA.Open(session); err != nil {
		t.Fatal(err)
	}
	cur := s.Cursor()
	half := int(s.Len()) / batch / 2
	feedBatches(t, clA, session, cur, batch, half)

	frame, err := clA.Snapshot(session)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	clB := dialT(t, srvB)
	if _, err := clB.Restore(session, frame); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	feedBatches(t, clB, session, cur, batch, -1)

	st, err := clB.Stats(session)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Session.Equal(want) {
		t.Errorf("moved session stats %+v, want %+v", st.Session, want)
	}
	if got := srvA.shardFor(session).metrics.snapshots.Load(); got != 1 {
		t.Errorf("server A snapshot ops = %d, want 1", got)
	}
	if got := srvB.shardFor(session).metrics.restores.Load(); got != 1 {
		t.Errorf("server B restores = %d, want 1", got)
	}
}

// TestSnapshotRoundTripAllBackends drives the wire-level
// Save → Snapshot → Restore cycle for every backend in the registry:
// half the stream on server A, snapshot, restore onto a server with a
// different shard count, the other half on B, and the
// final stats must be bit-identical to an uninterrupted in-process
// replay under the same backend. A newly registered backend fails the
// test until it gets a config entry here.
func TestSnapshotRoundTripAllBackends(t *testing.T) {
	s := captureTestStream(t)
	for _, b := range predictor.Backends() {
		cfg, ok := snapshotConfigs[b.Name]
		if !ok {
			t.Errorf("no round-trip config for newly registered backend %q — add one", b.Name)
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			const session, batch, nBatches = 7, 128, 20
			// Uninterrupted reference over the same traces.
			ref := predictor.MustNew(cfg)
			cur := s.Cursor()
			var tr trace.Trace
			for i := 0; i < nBatches*batch && cur.Next(&tr); i++ {
				ref.Predict()
				ref.Update(&tr)
			}

			srvA := newTestServer(t, Config{Shards: 2, Predictor: cfg})
			srvB := newTestServer(t, Config{Shards: 3, Predictor: cfg})
			clA := dialT(t, srvA)
			if _, _, err := clA.Open(session); err != nil {
				t.Fatal(err)
			}
			cur = s.Cursor()
			feedBatches(t, clA, session, cur, batch, nBatches/2)
			frame, err := clA.Snapshot(session)
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			clB := dialT(t, srvB)
			if _, err := clB.Restore(session, frame); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			feedBatches(t, clB, session, cur, batch, nBatches/2)
			st, err := clB.Stats(session)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Session.Equal(ref.Stats()) {
				t.Errorf("moved session stats %+v, want %+v", st.Session, ref.Stats())
			}
		})
	}
}

// TestRestoreRejectsWrongBackendFrame: a frame saved by a TAGE server
// is checksum-valid and well-formed, but must not install into a
// hybrid server — the backend families differ — and a frame whose tag
// bytes were corrupted (checksum fixed up) must be rejected at decode.
func TestRestoreRejectsWrongBackendFrame(t *testing.T) {
	s := captureTestStream(t)
	tageSrv := newTestServer(t, Config{Shards: 1,
		Predictor: predictor.Config{Backend: "tage", Depth: 7, IndexBits: 16}})
	cl := dialT(t, tageSrv)
	if _, _, err := cl.Open(1); err != nil {
		t.Fatal(err)
	}
	feedBatches(t, cl, 1, s.Cursor(), 128, 5)
	frame, err := cl.Snapshot(1)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	hybridSrv := newTestServer(t, Config{Shards: 1}) // headline hybrid
	clH := dialT(t, hybridSrv)
	if _, err := clH.Restore(1, frame); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("cross-family Restore = %v, want ErrBadSnapshot", err)
	}
	if got := hybridSrv.shardFor(1).metrics.restoreRejects.Load(); got != 1 {
		t.Errorf("restore rejects = %d, want 1", got)
	}

	// Corrupt the backend tag in place and fix the checksum: the frame
	// is now checksum-valid but tagged with an unregistered name.
	bad := append([]byte(nil), frame...)
	bad[30] ^= 0xFF // first byte of the tag ("tage" starts at offset 30)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
	if _, err := snapshot.Decode(bad); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("Decode of corrupt tag = %v, want snapshot.ErrCorrupt", err)
	}
	if _, err := cl.Restore(2, bad); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("Restore of corrupt tag = %v, want ErrBadSnapshot", err)
	}
}

// TestDrainSpillAndWarmRestart: a drained server spills its live
// session to the checkpoint dir; a fresh server on the same dir
// restores it before accepting traffic, Open reports the session's
// last applied sequence (so the client's dedup stream continues), and
// finishing the stream yields bit-identical stats.
func TestDrainSpillAndWarmRestart(t *testing.T) {
	s := captureTestStream(t)
	want := refStats(t, s)
	dir := t.TempDir()

	const session, batch = 9, 128
	srvA := newTestServer(t, Config{Shards: 2, CheckpointDir: dir})
	clA := dialT(t, srvA)
	if _, _, err := clA.Open(session); err != nil {
		t.Fatal(err)
	}
	cur := s.Cursor()
	half := int(s.Len()) / batch / 2
	sent := feedBatches(t, clA, session, cur, batch, half)
	clA.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := srvA.metrics.lost.Load(); got != 0 {
		t.Fatalf("drain lost %d sessions", got)
	}

	srvB := newTestServer(t, Config{Shards: 2, CheckpointDir: dir, AdminAddr: "127.0.0.1:0"})
	if got := srvB.metrics.restored.Load(); got != 1 {
		t.Fatalf("warm restart restored %d sessions, want 1", got)
	}
	// /metrics counts the restored session before any request.
	if n := metricSum(t, scrape(t, srvB), "ntpd_shard_sessions"); n != 1 {
		t.Errorf("warm-restarted ntpd_shard_sessions sum to %v, want 1", n)
	}
	clB := dialT(t, srvB)
	_, lastSeq, err := clB.Open(session)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(sent * batch); lastSeq != want {
		t.Errorf("restored session lastSeq = %d, want %d", lastSeq, want)
	}
	if st, err := clB.Stats(session); err != nil || st.Session.Predictions != uint64(sent*batch) {
		t.Errorf("restored session: %d predictions (err %v), want %d", st.Session.Predictions, err, sent*batch)
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

// TestCorruptCheckpointsSkippedOnRestart: bit-flipped and truncated
// checkpoint files are counted and skipped at startup — never
// installed, never fatal.
func TestCorruptCheckpointsSkippedOnRestart(t *testing.T) {
	s := captureTestStream(t)
	dir := t.TempDir()

	const session, batch = 1, 128
	srvA := newTestServer(t, Config{Shards: 1, CheckpointDir: dir})
	clA := dialT(t, srvA)
	if _, _, err := clA.Open(session); err != nil {
		t.Fatal(err)
	}
	feedBatches(t, clA, session, s.Cursor(), batch, 20)
	clA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	good, err := os.ReadFile(snapshotPath(dir, session))
	if err != nil {
		t.Fatalf("read spilled checkpoint: %v", err)
	}
	// Session 1's file: a flipped bit somewhere in the frame. Session
	// 2's file: a torn prefix, as a crashed write would leave on a
	// filesystem that reordered the rename.
	if err := os.WriteFile(snapshotPath(dir, session), faults.FlipBits(good, 99, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir, 2), faults.Truncate(good, 7), 0o644); err != nil {
		t.Fatal(err)
	}

	srvB := newTestServer(t, Config{Shards: 1, CheckpointDir: dir})
	if got := srvB.metrics.restored.Load(); got != 0 {
		t.Errorf("restored %d sessions from corrupt dir, want 0", got)
	}
	if got := srvB.metrics.corrupt.Load(); got != 2 {
		t.Errorf("corrupt snapshots = %d, want 2", got)
	}
}

// TestPeriodicCheckpointWritesFiles: with a short sweep interval, dirty
// sessions reach disk without any shutdown, and the files decode.
func TestPeriodicCheckpointWritesFiles(t *testing.T) {
	s := captureTestStream(t)
	dir := t.TempDir()
	srv := newTestServer(t, Config{Shards: 1, CheckpointDir: dir, CheckpointEvery: 10 * time.Millisecond})
	cl := dialT(t, srv)
	const session = 4
	if _, _, err := cl.Open(session); err != nil {
		t.Fatal(err)
	}
	feedBatches(t, cl, session, s.Cursor(), 128, 10)

	// The rename makes the file visible just before the sweep counts
	// it, so wait for both.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(snapshotPath(dir, session)); err == nil && srv.metrics.ckptWritten.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			ents, _ := os.ReadDir(dir)
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			t.Fatalf("no checkpoint for session %d after 5s (sweep counted %d files); dir has %v",
				session, srv.metrics.ckptWritten.Load(), names)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The file must be a valid frame for this session (atomic rename
	// means we never observe a partial write).
	b, err := os.ReadFile(snapshotPath(dir, session))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := snapshot.Decode(b)
	if err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	if sess.ID != session {
		t.Errorf("checkpoint holds session %d, want %d", sess.ID, session)
	}
}

// TestCrashWithStaleCheckpointRecoversFromClientFrame is a crash with
// no drain: the restarted server loads a checkpoint taken at sequence
// 640 while the client has 1,280 acked. The client's next batch starts
// past the server's last sequence, so the server must refuse the gap
// rather than train across it. At SnapshotEvery 1 the RetryClient
// holds a frame covering every acked trace: it restores that frame and
// resends, and the session ends bit-identical to an uninterrupted
// replay. At SnapshotEvery 0 it holds no frame, so the batch fails
// with ErrSeqGap instead of silently losing acked traces.
func TestCrashWithStaleCheckpointRecoversFromClientFrame(t *testing.T) {
	s := captureTestStream(t)
	want := refStats(t, s)
	for _, every := range []int{1, 0} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", every), func(t *testing.T) {
			cfg := Config{Shards: 1, AdminAddr: "127.0.0.1:0", CheckpointDir: t.TempDir(), CheckpointEvery: time.Hour}
			srvA := newTestServer(t, cfg)
			rc, err := NewRetryClient(RetryConfig{
				Addrs:         []string{srvA.Addr().String()},
				SnapshotEvery: every,
				Seed:          7,
				BaseBackoff:   2 * time.Millisecond,
				MaxBackoff:    50 * time.Millisecond,
				MaxElapsed:    10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			const session, batch = 9, 64
			if _, _, err := rc.Open(session); err != nil {
				t.Fatal(err)
			}
			cur := s.Cursor()
			feed := func(n int) error {
				var tr trace.Trace
				buf := make([]trace.Trace, 0, batch)
				for sent := 0; n < 0 || sent < n; sent++ {
					buf = buf[:0]
					for len(buf) < batch && cur.Next(&tr) {
						buf = append(buf, tr)
					}
					if len(buf) == 0 {
						break
					}
					if _, _, _, err := rc.UpdateBatch(session, buf); err != nil {
						return err
					}
				}
				return nil
			}
			if err := feed(10); err != nil {
				t.Fatal(err)
			}
			// The checkpoint a periodic sweep leaves at sequence 640.
			frame, err := dialT(t, srvA).Snapshot(session)
			if err != nil {
				t.Fatal(err)
			}
			if err := writeSnapshotFile(cfg.CheckpointDir, session, frame); err != nil {
				t.Fatal(err)
			}
			if err := feed(10); err != nil {
				t.Fatal(err)
			}
			srvA.Close() // a crash: no drain, so the checkpoint stays at 640
			cfg.Addr = srvA.Addr().String()
			srvB := newTestServer(t, cfg)

			err = feed(-1)
			if every == 0 {
				if !errors.Is(err, ErrSeqGap) {
					t.Fatalf("feed after the restart: err = %v, want ErrSeqGap", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			st, err := rc.Stats(session)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Session.Equal(want) {
				t.Errorf("after the crash: stats %+v, want %+v", st.Session, want)
			}
			if v := metricValue(t, scrape(t, srvB), `ntpd_snapshot_restores_total{shard="0"}`); v != 1 {
				t.Errorf("restarted server saw %v restores, want 1 (the client's frame over the stale checkpoint)", v)
			}
		})
	}
}

// TestLoadgenFailoverSurvivesCrash is the crash cycle of CI's SIGKILL
// leg, in process: a failover loadgen runs against a server with a
// checkpoint dir; once every session has a checkpoint on disk and has
// acked batches past it, the server dies with no drain, and a second
// server comes up on the same address and dir, behind every session.
// The run must still verify bit-identical, and the second server must
// have restored the checkpoints and then the client's own frames over
// them. The checkpoint is one sweep the test runs itself, so the kill
// is certain to land after traffic the checkpoint does not hold.
func TestLoadgenFailoverSurvivesCrash(t *testing.T) {
	w, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("unknown workload compress")
	}
	// ~39K traces per session: far more than the kill waits for.
	s, err := stream.Capture(nil, w, 500_000, trace.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{Shards: 2, CheckpointDir: dir, CheckpointEvery: time.Hour}
	srvA := newTestServer(t, cfg)
	const sessions, batch = 4, 64
	type result struct {
		rep *LoadgenReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := RunLoadgen(context.Background(), LoadgenConfig{
			Addr: srvA.Addr().String(), Stream: s,
			Conns: 2, Sessions: sessions, Batch: batch,
			Verify: true, Predictor: headlineConfig(), Failover: true,
		})
		done <- result{rep, err}
	}()
	trained := func() (n uint64) {
		for _, sh := range srvA.shards {
			n += sh.metrics.traces.Load()
		}
		return n
	}
	// waitTrained waits until srvA has trained n traces in all.
	waitTrained := func(n uint64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); trained() < n; time.Sleep(time.Millisecond) {
			select {
			case r := <-done:
				t.Fatalf("the run ended before the kill: %v", r.err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("server trained %d traces in 10s, want %d", trained(), n)
			}
		}
	}
	// Two rounds on each connection: every session has trained.
	waitTrained(4 * sessions * batch)
	srvA.ckpt.sweep()
	for id := uint64(1); id <= sessions; id++ {
		if _, err := os.Stat(snapshotPath(dir, id)); err != nil {
			t.Fatalf("session %d has no checkpoint after the sweep: %v", id, err)
		}
	}
	// Two more rounds: each session has acked a batch the checkpoint
	// does not hold.
	waitTrained(trained() + 2*sessions*batch)
	srvA.Close() // a crash: no drain, so the checkpoints stay behind

	cfg.Addr = srvA.Addr().String()
	cfg.AdminAddr = "127.0.0.1:0"
	srvB := newTestServer(t, cfg)
	r := <-done
	if r.err != nil {
		t.Fatalf("loadgen across the crash: %v", r.err)
	}
	if !r.rep.Verified {
		t.Error("loadgen report not verified")
	}
	body := scrape(t, srvB)
	if v := metricValue(t, body, "ntpd_checkpoint_restored_sessions"); v != sessions {
		t.Errorf("restarted server restored %v sessions from checkpoints, want %d", v, sessions)
	}
	if v := metricSum(t, body, "ntpd_snapshot_restores_total"); v == 0 {
		t.Error("restarted server saw no restore of a client frame: the gap path did not run")
	}
}
