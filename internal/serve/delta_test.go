package serve

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"pathtrace/internal/faults"
	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
	"pathtrace/internal/trace"
)

// heldFrame is what a tracked-snapshot client keeps per session.
type heldFrame struct {
	snapshot.Held
	gen uint64
}

// TestRetryClientDeltaFramesMatchFullSnapshots is the differential test
// of incremental snapshots. A RetryClient with SnapshotEvery 1 streams
// through a proxy that tears, drops or answers ErrUnknownSession to
// some of a real server's snapshot answers. After every acked batch the
// frame the client holds, merged from deltas and checksummed on read,
// must be byte-identical to a full Client.Snapshot of the same session
// taken straight from the server, and the session must end
// bit-identical to an in-process replay. Every paper backend answers
// with deltas; TAGE has no delta hooks and must fall back to full
// frames and recover just as exactly.
func TestRetryClientDeltaFramesMatchFullSnapshots(t *testing.T) {
	s := captureTestStream(t)
	faultPlan := &faults.Config{Seed: 5, Table: 0.02, Secondary: 0.02, History: 0.01, Bits: 2}
	cases := []struct {
		name   string
		pcfg   predictor.Config
		fcfg   *faults.Config
		deltas bool
	}{
		{"hybrid", predictor.Config{Backend: "hybrid", Depth: 5, IndexBits: 12}, nil, true},
		{"hybrid+rhs", predictor.Config{Backend: "hybrid", Depth: 7, IndexBits: 12, UseRHS: true}, nil, true},
		{"costreduced", predictor.Config{Backend: "costreduced", Depth: 7, IndexBits: 12, UseRHS: true}, nil, true},
		{"basic", predictor.Config{Backend: "basic", Depth: 5, IndexBits: 12}, nil, true},
		{"hybrid+faults", predictor.Config{Backend: "hybrid", Depth: 7, IndexBits: 12, UseRHS: true}, faultPlan, true},
		{"tage", predictor.Config{Backend: "tage", Depth: 7, IndexBits: 12}, nil, false},
	}
	for _, tc := range cases {
		for _, f := range []struct {
			name  string
			fault snapFault
		}{{"tear", snapTear}, {"drop", snapDrop}, {"unknown", snapUnknown}} {
			t.Run(tc.name+"/"+f.name, func(t *testing.T) {
				const session = 4
				srv := newTestServer(t, Config{Shards: 2, Predictor: tc.pcfg, Faults: tc.fcfg})
				px := newFaultProxy(t, srv.Addr().String(), map[int]snapFault{4: f.fault, 13: f.fault})
				rc, err := NewRetryClient(RetryConfig{
					Addrs:         []string{px.ln.Addr().String()},
					OpTimeout:     200 * time.Millisecond,
					BaseBackoff:   time.Millisecond,
					MaxBackoff:    2 * time.Millisecond,
					MaxElapsed:    10 * time.Second,
					SnapshotEvery: 1,
					Seed:          1,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer rc.Close()
				direct := dialT(t, srv)
				if _, _, err := rc.Open(session); err != nil {
					t.Fatal(err)
				}
				cfg := tc.pcfg
				if tc.fcfg != nil {
					cfg.Faults = faults.New(*tc.fcfg)
				}
				ref := predictor.MustNew(cfg)
				cur := s.Cursor()
				batch := make([]trace.Trace, 96)
				for i := 0; i < 20; i++ {
					n := cur.NextBatch(batch)
					if _, _, _, err := rc.UpdateBatch(session, batch[:n]); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
					for j := range batch[:n] {
						ref.Predict()
						ref.Update(&batch[j])
					}
					want, err := direct.Snapshot(session)
					if err != nil {
						t.Fatal(err)
					}
					if got := rc.sessions[session].snap.Frame(); !bytes.Equal(got, want) {
						t.Fatalf("batch %d: held frame (%d bytes) differs from the full snapshot (%d bytes)", i, len(got), len(want))
					}
				}
				px.mu.Lock()
				served := px.snaps
				px.mu.Unlock()
				if served < 21+2 {
					t.Fatalf("%d snapshots through the proxy; the faults never fired", served)
				}
				st, err := rc.Stats(session)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Session.Equal(ref.Stats()) {
					t.Errorf("session stats %+v, want %+v", st.Session, ref.Stats())
				}
				var deltas uint64
				for _, sh := range srv.shards {
					deltas += sh.metrics.deltaSnaps.Load()
				}
				if tc.deltas && deltas < 10 {
					t.Errorf("%d delta snapshots served, want most of them", deltas)
				}
				if !tc.deltas && deltas != 0 {
					t.Errorf("%d delta snapshots served for a backend without delta hooks", deltas)
				}
			})
		}
	}
}

// TestSnapshotTokenFallsBackToFullFrame: a tracked batch's answer
// carries a delta only when the batch names the session's last answered
// generation. A stale token (a lost answer, a second client), a zero
// token, and the first tracked batch after a restore all get a full
// frame; an untracked OpSnapshot in between gets the bare frame and
// does not disturb the tracked client's next delta.
func TestSnapshotTokenFallsBackToFullFrame(t *testing.T) {
	s := captureTestStream(t)
	srv := newTestServer(t, Config{Shards: 1, Predictor: predictor.Config{Backend: "hybrid", Depth: 7, IndexBits: 12, UseRHS: true}})
	cl := dialT(t, srv)
	const session = 2
	if _, _, err := cl.Open(session); err != nil {
		t.Fatal(err)
	}
	cur := s.Cursor()
	batch := make([]trace.Trace, 64)
	var seq uint64
	deltas := func() uint64 { return srv.shards[0].metrics.deltaSnaps.Load() }
	var a, b heldFrame
	track := func(h *heldFrame, wantDelta bool) {
		t.Helper()
		n := cur.NextBatch(batch)
		before := deltas()
		_, applied, _, gen, err := cl.UpdateBatchSnapshot(session, seq+1, batch[:n], h.gen, &h.Held)
		if err != nil {
			t.Fatal(err)
		}
		if applied != uint32(n) {
			t.Fatalf("applied %d of %d", applied, n)
		}
		seq += uint64(n)
		h.gen = gen
		if got := deltas() > before; got != wantDelta {
			t.Fatalf("delta answer = %v, want %v", got, wantDelta)
		}
		want, err := cl.Snapshot(session)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(h.Frame(), want) {
			t.Fatal("tracked frame differs from the full snapshot")
		}
	}
	track(&a, false) // first: full
	track(&a, true)  // token current: delta, across the untracked Snapshot above
	track(&b, false) // second client, no token: full
	track(&a, false) // a's token went stale
	track(&a, true)
	if _, err := cl.Restore(session, a.Frame()); err != nil {
		t.Fatal(err)
	}
	track(&a, false) // restored session has no tracked snapshot
	track(&a, true)
}

// TestTrackedBatchRefusedWithoutSnapshots: a tracked batch on a backend
// that cannot snapshot is refused with ErrBadRequest before it trains,
// so the session's stats do not move, while the same batch untracked
// trains.
func TestTrackedBatchRefusedWithoutSnapshots(t *testing.T) {
	cfg := predictor.Config{Backend: "unbounded", Depth: 3}
	if b, err := predictor.ResolveBackend(cfg); err != nil || b.Snapshottable() {
		t.Fatalf("backend %q: err %v, snapshottable %v; want a backend without snapshots", cfg.Backend, err, b.Snapshottable())
	}
	srv := newTestServer(t, Config{Shards: 1, Predictor: cfg})
	cl := dialT(t, srv)
	const session = 3
	if _, _, err := cl.Open(session); err != nil {
		t.Fatal(err)
	}
	batch := streamTraces(t)[:64]
	var h snapshot.Held
	if _, _, _, _, err := cl.UpdateBatchSnapshot(session, 1, batch, 0, &h); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("tracked batch: err = %v, want ErrBadRequest", err)
	}
	if h.Len() != 0 {
		t.Error("a refused batch filled the held frame")
	}
	st, err := cl.Stats(session)
	if err != nil {
		t.Fatal(err)
	}
	if st.Session != (predictor.Stats{}) {
		t.Fatalf("stats after a refused tracked batch %+v, want none", st.Session)
	}
	if _, applied, _, err := cl.UpdateBatchSeq(session, 1, batch); err != nil || applied != uint32(len(batch)) {
		t.Fatalf("untracked batch: applied %d, err %v", applied, err)
	}
	// A RetryClient that must hold a frame of the session cannot, so
	// its Open fails rather than run without recovery.
	rc, err := NewRetryClient(RetryConfig{Addrs: []string{srv.Addr().String()}, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, _, err := rc.Open(session); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("RetryClient.Open at SnapshotEvery 1: err = %v, want ErrBadRequest", err)
	}
}

// TestWarmOpenShipsOneFullFrame: a RetryClient at SnapshotEvery 1 that
// opens a session another client trained takes the session's one full
// frame with Open, so its first ack is already a delta, and the frame
// it then holds is the session's full snapshot byte for byte.
func TestWarmOpenShipsOneFullFrame(t *testing.T) {
	traces := streamTraces(t)
	srv := newTestServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 1})
	cl := dialT(t, srv)
	const session = 6
	if _, _, err := cl.Open(session); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cl.UpdateBatch(session, traces[:512]); err != nil {
		t.Fatal(err)
	}
	rc, err := NewRetryClient(RetryConfig{Addrs: []string{srv.Addr().String()}, SnapshotEvery: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, lastSeq, err := rc.Open(session); err != nil || lastSeq != 512 {
		t.Fatalf("Open: lastSeq %d, err %v; want 512", lastSeq, err)
	}
	if _, applied, _, err := rc.UpdateBatch(session, traces[512:576]); err != nil || applied != 64 {
		t.Fatalf("UpdateBatch: applied %d, err %v; want 64", applied, err)
	}
	body := scrape(t, srv)
	for _, c := range []struct {
		series string
		want   float64
	}{
		{`ntpd_snapshot_ops_total{shard="0"}`, 2},
		{`ntpd_snapshot_delta_ops_total{shard="0"}`, 1},
	} {
		if got := metricValue(t, body, c.series); got != c.want {
			t.Errorf("%s = %v, want %v", c.series, got, c.want)
		}
	}
	want, err := cl.Snapshot(session)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rc.sessions[session].snap.Frame(), want) {
		t.Error("held frame differs from the session's full snapshot")
	}
}
