package serve

import (
	"fmt"
	"testing"

	"pathtrace/internal/faults"
	"pathtrace/internal/metrics"
	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
)

// TestShardAggregateMatchesSessions pins the shard's session count,
// ntpd_shard_sessions: after an open, a restore over a live session
// (which must not count it twice) and a restore of a new one, /metrics
// must show exactly the resident sessions.
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
			srv := newTestServer(t, Config{Shards: 1, Faults: tc.faults, AdminAddr: "127.0.0.1:0"})
			cl := dialT(t, srv)

			check := func(step string, want int) {
				t.Helper()
				if v := metricValue(t, scrape(t, srv), `ntpd_shard_sessions{shard="0"}`); v != float64(want) {
					t.Errorf("%s: ntpd_shard_sessions = %v, want %d", step, v, want)
				}
			}
			check("start", 0)
			for _, id := range []uint64{1, 2, 3} {
				if _, _, err := cl.Open(id); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("open %d", id), int(id))
			}
			if _, _, err := cl.Open(1); err != nil {
				t.Fatal(err)
			}
			check("reopen 1", 3)
			if _, _, _, err := cl.UpdateBatch(1, traces[:100]); err != nil {
				t.Fatal(err)
			}
			frame, err := cl.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Restore(1, frame); err != nil {
				t.Fatal(err)
			}
			check("restore over 1", 3)

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
			check("restore new 4", 4)
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
