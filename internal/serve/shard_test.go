package serve

import (
	"fmt"
	"testing"

	"pathtrace/internal/faults"
	"pathtrace/internal/metrics"
	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
)

// TestShardAggregateMatchesSessions pins the running shard aggregate:
// after every op that can move a session's stats — open, fresh and
// partly or fully replayed batches, snapshot, restore over a live
// session and restore of a new one — OpStats.ShardAgg and the admin
// view must both equal the sum of the resident sessions' own stats.
func TestShardAggregateMatchesSessions(t *testing.T) {
	fcfg := faultsConfigForTest()
	for _, tc := range []struct {
		name   string
		faults *faults.Config
	}{
		{"plain", nil},
		{"faults", &fcfg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			traces := streamTraces(t)
			srv := newTestServer(t, Config{Shards: 1, Faults: tc.faults})
			cl := dialT(t, srv)

			var ids []uint64
			check := func(step string) {
				t.Helper()
				var sum, shardAgg predictor.Stats
				for _, id := range ids {
					st, err := cl.Stats(id)
					if err != nil {
						t.Fatalf("%s: stats %d: %v", step, id, err)
					}
					if int(st.Sessions) != len(ids) {
						t.Errorf("%s: OpStats sessions = %d, want %d", step, st.Sessions, len(ids))
					}
					sum = sum.Add(st.Session)
					shardAgg = st.ShardAgg
				}
				if shardAgg != sum {
					t.Errorf("%s: OpStats shard aggregate %+v, sessions sum to %+v", step, shardAgg, sum)
				}
				if st := srv.Stats(); st.Predictor != sum || st.Sessions != len(ids) {
					t.Errorf("%s: server stats %d sessions %+v, want %d sessions %+v",
						step, st.Sessions, st.Predictor, len(ids), sum)
				}
			}
			updateSeq := func(step string, id, start uint64, off, n int, wantSkipped uint32) {
				t.Helper()
				skipped, applied, _, err := cl.UpdateBatchSeq(id, start, traces[off:off+n])
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if skipped != wantSkipped || int(skipped+applied) != n {
					t.Fatalf("%s: skipped %d applied %d of %d, want %d skipped", step, skipped, applied, n, wantSkipped)
				}
				check(step)
			}

			for _, id := range []uint64{1, 2, 3} {
				if _, _, err := cl.Open(id); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
				check(fmt.Sprintf("open %d", id))
			}
			updateSeq("update 1", 1, 1, 0, 100, 0)
			if _, _, _, err := cl.PredictBatch(2, traces[:64], nil); err != nil {
				t.Fatal(err)
			}
			check("predict batch 2")
			updateSeq("update 3", 3, 1, 200, 100, 0)
			updateSeq("overlapping resend 1", 1, 51, 50, 100, 50)
			updateSeq("full replay 1", 1, 1, 0, 100, 100)

			frame, err := cl.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			check("snapshot 1")
			updateSeq("update 1 past snapshot", 1, 151, 150, 100, 0)
			if _, err := cl.Restore(1, frame); err != nil {
				t.Fatal(err)
			}
			check("restore over 1")

			sess, err := snapshot.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			sess.ID = 4
			frame4, err := snapshot.Encode(sess)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Restore(4, frame4); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, 4)
			check("restore new 4")
			updateSeq("update 4", 4, 151, 150, 50, 0)
		})
	}
}

// BenchmarkShardSessions times one UpdateBatch request at batch 16
// through shard.run, the shard's entry point, with 1, 1000 and 10000
// sessions resident. All traffic goes to one session, so only the
// resident count varies: any per-request cost that walks the sessions
// shows as ns/op growing with it. The small geometry keeps 10k
// sessions' tables small.
func BenchmarkShardSessions(b *testing.B) {
	traces := streamTraces(b)
	cfg := predictor.Config{Depth: 7, IndexBits: 8, SecondaryBits: 8, Hybrid: true, UseRHS: true}
	backend, err := predictor.ResolveBackend(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 16
	for _, n := range []int{1, 1000, 10000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			sh := newShard(0, backend, cfg, nil, nil, 1,
				newShardMetrics(metrics.NewRegistry(), 0, backend.Name, nil))
			for id := 0; id < n; id++ {
				if resp := sh.open(uint64(id)); resp.err != nil {
					b.Fatal(resp.err)
				}
			}
			seq, off := uint64(1), 0
			var req request
			var resp shardResp
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if off+batch > len(traces) {
					off = 0
				}
				req = request{op: OpUpdateBatch, seq: seq, traces: traces[off : off+batch]}
				if !sh.run(&req, &resp) {
					b.Fatal("shard refused the request")
				}
				seq += batch
				off += batch
			}
		})
	}
}
