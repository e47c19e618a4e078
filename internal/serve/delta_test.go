package serve

import (
	"bytes"
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

// TestSnapshotTokenFallsBackToFullFrame: a tracked OpSnapshot gets a
// delta only when it names the session's last answered generation. A
// stale token (a lost answer, a second client), a zero token, and the
// first snapshot after a restore all get a full frame; an untracked
// snapshot in between gets the bare frame and does not disturb the
// tracked client's next delta.
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
	update := func() {
		t.Helper()
		n := cur.NextBatch(batch)
		if _, _, _, err := cl.UpdateBatch(session, batch[:n]); err != nil {
			t.Fatal(err)
		}
	}
	deltas := func() uint64 { return srv.shards[0].metrics.deltaSnaps.Load() }
	var a, b heldFrame
	refresh := func(h *heldFrame, wantDelta bool) {
		t.Helper()
		before := deltas()
		gen, err := cl.RefreshSnapshot(session, h.gen, &h.Held)
		if err != nil {
			t.Fatal(err)
		}
		h.gen = gen
		if got := deltas() > before; got != wantDelta {
			t.Fatalf("delta answer = %v, want %v", got, wantDelta)
		}
		want, err := cl.Snapshot(session)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(h.Frame(), want) {
			t.Fatal("refreshed frame differs from the full snapshot")
		}
	}
	update()
	refresh(&a, false) // first: full
	update()
	refresh(&a, true) // token current: delta, across the untracked Snapshot above
	update()
	refresh(&b, false) // second client, no token: full
	update()
	refresh(&a, false) // a's token went stale
	update()
	refresh(&a, true)
	if _, err := cl.Restore(session, a.Frame()); err != nil {
		t.Fatal(err)
	}
	update()
	refresh(&a, false) // restored session has no tracked snapshot
	update()
	refresh(&a, true)
}
