package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"pathtrace/internal/faults"
	"pathtrace/internal/predictor"
	"pathtrace/internal/stream"
	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

const testLimit = 50_000

// headlineConfig is the paper's headline predictor, the serving
// default.
func headlineConfig() predictor.Config {
	return predictor.Config{Depth: 7, IndexBits: 16, Hybrid: true, UseRHS: true}
}

var (
	testStreamOnce sync.Once
	testStream     *stream.Stream
	testStreamErr  error
)

// captureTestStream captures one small compress stream, shared across
// tests (capture simulates the workload, so do it once).
func captureTestStream(t testing.TB) *stream.Stream {
	t.Helper()
	testStreamOnce.Do(func() {
		w, ok := workload.ByName("compress")
		if !ok {
			testStreamErr = errors.New("unknown workload compress")
			return
		}
		testStream, testStreamErr = stream.Capture(nil, w, testLimit, trace.DefaultConfig())
	})
	if testStreamErr != nil {
		t.Fatalf("capture: %v", testStreamErr)
	}
	return testStream
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Predictor == (predictor.Config{}) {
		cfg.Predictor = headlineConfig()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestServeBitIdenticalStats is the subsystem's anchor: a stream
// replayed over the wire must leave the session's predictor with
// exactly the stats of an in-process replay — same predictions, same
// hits, same cold misses, bit for bit.
func TestServeBitIdenticalStats(t *testing.T) {
	s := captureTestStream(t)
	srv := newTestServer(t, Config{Shards: 3, AdminAddr: "127.0.0.1:0"})

	want := refStats(t, s)
	if want.Predictions == 0 {
		t.Fatal("reference replay made no predictions")
	}

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const session = 42
	if _, _, err := cl.Open(session); err != nil {
		t.Fatal(err)
	}

	// Push the stream through in uneven batches (exercises batch
	// boundaries not aligning with anything).
	cur := s.Cursor()
	batch := make([]trace.Trace, 0, 173)
	var tr trace.Trace
	for {
		batch = batch[:0]
		for len(batch) < cap(batch) && cur.Next(&tr) {
			batch = append(batch, tr)
		}
		if len(batch) == 0 {
			break
		}
		skipped, applied, _, err := cl.UpdateBatch(session, batch)
		if err != nil {
			t.Fatal(err)
		}
		if skipped != 0 || int(applied) != len(batch) {
			t.Fatalf("skipped %d, applied %d of %d", skipped, applied, len(batch))
		}
	}

	st, err := cl.Stats(session)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Session.Equal(want) {
		t.Errorf("server stats %+v\nin-process  %+v\nnot bit-identical", st.Session, want)
	}
	// The session is alone on its shard, so the shard's /metrics
	// predictor counters must equal its stats too.
	body := scrape(t, srv)
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"ntpd_predictor_rounds_total", want.Predictions},
		{"ntpd_predictor_correct_total", want.Correct},
		{"ntpd_predictor_cold_total", want.Cold},
		{"ntpd_predictor_secondary_total", want.FromSecondary},
	} {
		series := fmt.Sprintf(`%s{shard="%d"}`, c.name, st.Shard)
		if v := metricValue(t, body, series); v != float64(c.want) {
			t.Errorf("single-session shard %s = %v, want %d", series, v, c.want)
		}
	}
}

// TestServeSessionIsolation runs two sessions through the same server
// (likely on different shards, but correctness must not depend on it)
// and requires both to match the in-process reference independently.
func TestServeSessionIsolation(t *testing.T) {
	s := captureTestStream(t)
	srv := newTestServer(t, Config{Shards: 2})

	rep, err := RunLoadgen(context.Background(), LoadgenConfig{
		Addr:      srv.Addr().String(),
		Stream:    s,
		Conns:     2,
		Sessions:  4,
		Batch:     97,
		Verify:    true,
		Predictor: headlineConfig(),
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if !rep.Verified {
		t.Error("loadgen did not verify")
	}
	if want := uint64(s.Len()) * 4; rep.Traces != want {
		t.Errorf("delivered %d traces, want %d", rep.Traces, want)
	}
	if rep.P50 <= 0 || rep.Max < rep.P99 || rep.P99 < rep.P50 {
		t.Errorf("implausible latency percentiles: %+v", rep)
	}
}

func TestServeUnknownSession(t *testing.T) {
	srv := newTestServer(t, Config{})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, _, _, err := cl.UpdateBatch(7, make([]trace.Trace, 1)); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("UpdateBatch on unopened session: %v, want ErrUnknownSession", err)
	}
	if _, err := cl.Stats(7); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("Stats on unopened session: %v, want ErrUnknownSession", err)
	}
}

// TestServeOverload runs many concurrent clients against a one-shard
// server that lets one request wait, and requires that overloads
// either happened (typed, recoverable) or everything succeeded — and
// that the server survives either way.
func TestServeOverload(t *testing.T) {
	s := captureTestStream(t)
	srv := newTestServer(t, Config{Shards: 1, QueueLen: 1})

	var overloads, oks atomic64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			session := uint64(100 + c)
			if _, err := openRetry(cl, session); err != nil {
				t.Errorf("open: %v", err)
				return
			}
			batch := make([]trace.Trace, 0, 64)
			cur := s.Cursor()
			var tr trace.Trace
			for len(batch) < cap(batch) && cur.Next(&tr) {
				batch = append(batch, tr)
			}
			for i := 0; i < 50; i++ {
				_, _, _, err := cl.UpdateBatch(session, batch)
				switch {
				case err == nil:
					oks.add(1)
				case errors.Is(err, ErrOverloaded):
					overloads.add(1)
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("update: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if oks.load() == 0 {
		t.Error("no update ever succeeded under load")
	}
	t.Logf("oks=%d overloads=%d", oks.load(), overloads.load())

	// The server is still healthy after the storm.
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := openRetry(cl, 999); err != nil {
		t.Errorf("post-storm open: %v", err)
	}
}

// openRetry retries Open over transient overloads (Open goes through
// the same bounded wait on the shard as everything else).
func openRetry(cl *Client, session uint64) (uint32, error) {
	for i := 0; ; i++ {
		shard, _, err := cl.Open(session)
		if !errors.Is(err, ErrOverloaded) || i == 200 {
			return shard, err
		}
		time.Sleep(time.Millisecond)
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) add(n uint64) { a.mu.Lock(); a.v += n; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// TestServeDrain checks graceful shutdown: after Shutdown begins, new
// requests get ErrDraining, in-flight requests complete, and Shutdown
// returns cleanly.
func TestServeDrain(t *testing.T) {
	// The checkpoint dir gives the drain offload somewhere to spill the
	// open session. Without one, the session is counted lost, but
	// Shutdown does not report an error (TestDrainLossAccounting).
	srv := newTestServer(t, Config{Shards: 1, AdminAddr: "127.0.0.1:0", CheckpointDir: t.TempDir()})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Open(1); err != nil {
		t.Fatal(err)
	}

	// Force the draining state while the connection is still open: the
	// request must come back as a typed ErrDraining, and the reject must
	// be visible on /metrics — the counter used to be tracked but the
	// drain path went unasserted.
	srv.draining.Store(true)
	if _, _, err := cl.Open(2); !errors.Is(err, ErrDraining) {
		t.Fatalf("Open while draining = %v, want ErrDraining", err)
	}
	if v := metricValue(t, scrape(t, srv), "ntpd_drain_rejects_total"); v != 1 {
		t.Errorf("ntpd_drain_rejects_total = %v, want 1", v)
	}
	srv.draining.Store(false)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The connection is closed (or the request refused) after drain.
	if _, _, err := cl.Open(2); err == nil {
		t.Error("Open succeeded after Shutdown")
	}
	// New connections are refused: the listener is closed.
	if _, err := net.DialTimeout("tcp", srv.Addr().String(), 500*time.Millisecond); err == nil {
		t.Error("dial succeeded after Shutdown")
	}
}

// TestServeSessionSurvivesReconnect: a session's predictor lives on
// the shard, not the connection, so a reconnecting client resumes the
// same trained state (and Open is idempotent).
func TestServeSessionSurvivesReconnect(t *testing.T) {
	s := captureTestStream(t)
	srv := newTestServer(t, Config{})

	want := refStats(t, s)

	const session = 5
	half := s.Len() / 2
	cur := s.Cursor()

	send := func(cl *Client, n int) {
		t.Helper()
		batch := make([]trace.Trace, 0, 128)
		var tr trace.Trace
		for n > 0 {
			batch = batch[:0]
			for len(batch) < cap(batch) && n > 0 && cur.Next(&tr) {
				batch = append(batch, tr)
				n--
			}
			if len(batch) == 0 {
				return
			}
			if _, _, _, err := cl.UpdateBatch(session, batch); err != nil {
				t.Fatal(err)
			}
		}
	}

	cl1, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl1.Open(session); err != nil {
		t.Fatal(err)
	}
	send(cl1, half)
	cl1.Close()

	cl2, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, _, err := cl2.Open(session); err != nil { // idempotent re-open
		t.Fatal(err)
	}
	send(cl2, s.Len()-half)

	st, err := cl2.Stats(session)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Session.Equal(want) {
		t.Errorf("stats after reconnect %+v, want %+v", st.Session, want)
	}
}

// TestServeMalformedFrameClosesConn: a garbage frame drops the
// connection (framing is no longer trustworthy) without hurting other
// connections.
func TestServeMalformedFrameClosesConn(t *testing.T) {
	srv := newTestServer(t, Config{})

	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Legal length prefix, garbage op.
	payload := make([]byte, reqHeaderBytes)
	payload[0] = 0x7f
	bw := bufio.NewWriter(raw)
	if err := writeFrame(bw, payload); err != nil || bw.Flush() != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(bufio.NewReader(raw), nil); err == nil {
		t.Error("expected connection close after malformed request")
	}

	// A healthy client on a fresh connection still works.
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Open(1); err != nil {
		t.Errorf("open after another conn's bad frame: %v", err)
	}
}

// TestAdminEndpoints exercises /healthz and /metrics, and pins that the
// retired JSON endpoints /statsz and /varz are gone: every server
// counter is read from /metrics.
func TestAdminEndpoints(t *testing.T) {
	s := captureTestStream(t)
	srv := newTestServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 2})
	base := "http://" + srv.AdminAddr().String()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		buf, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, buf
	}

	if code, body := get("/healthz"); code != 200 || string(body) != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	for _, path := range []string{"/statsz", "/varz"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", path, code)
		}
	}

	// Run a little traffic so the counters move.
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	shard, _, err := cl.Open(1)
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

	// The shard flushes its counters before answering, so the update is
	// already visible.
	body := scrape(t, srv)
	l := fmt.Sprintf(`{shard="%d"}`, shard)
	for _, c := range []struct {
		series string
		want   float64
	}{
		{"ntpd_shard_sessions" + l, 1},
		{"ntpd_shard_traces_total" + l, float64(len(batch))},
		{"ntpd_predictor_rounds_total" + l, float64(len(batch))},
		{"ntpd_shard_queue_depth" + l, 0},
	} {
		if v := metricValue(t, body, c.series); v != c.want {
			t.Errorf("%s = %v, want %v", c.series, v, c.want)
		}
	}

	// Draining flips health.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() { srv.Shutdown(ctx); close(done) }()
	<-done
	if resp, err := http.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Error("/healthz still 200 after shutdown")
		}
	}
}

// TestShardHashingStable pins the session->shard mapping property the
// docs promise: deterministic for a fixed shard count.
func TestShardHashingStable(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 4})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for sess := uint64(1); sess <= 16; sess++ {
		a, _, err := cl.Open(sess)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := cl.Open(sess)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("session %d moved shard %d -> %d", sess, a, b)
		}
		if want := uint32(splitmix64(sess) % 4); a != want {
			t.Errorf("session %d on shard %d, want %d", sess, a, want)
		}
	}
}

// TestServeFaultInjection: a fault-injecting server must still be
// bit-identical to an in-process replay under the same plan, because
// every session gets its own deterministic injector.
func TestServeFaultInjection(t *testing.T) {
	s := captureTestStream(t)
	fcfg := faultsConfigForTest()
	srv := newTestServer(t, Config{Faults: &fcfg})

	rep, err := RunLoadgen(context.Background(), LoadgenConfig{
		Addr:      srv.Addr().String(),
		Stream:    s,
		Sessions:  2,
		Batch:     173,
		Verify:    true,
		Predictor: headlineConfig(),
		Faults:    &fcfg,
	})
	if err != nil {
		t.Fatalf("loadgen under faults: %v", err)
	}
	if !rep.Verified {
		t.Error("fault-injected run did not verify")
	}
}

func faultsConfigForTest() faults.Config {
	return faults.Config{Seed: 12345, Table: 1e-3, History: 1e-4}
}

// TestServeSmokeStream runs the committed testdata stream — the same
// file the CI serve-smoke job replays through the real ntpd binary —
// through the in-process loadgen with verification, so a change that
// breaks the .ntps format or the committed capture fails here first
// with a real diff instead of in a shell script.
func TestServeSmokeStream(t *testing.T) {
	s, err := stream.Load("testdata/smoke.ntps")
	if err != nil {
		t.Fatalf("Load smoke stream: %v", err)
	}
	if s.Len() == 0 {
		t.Fatal("smoke stream is empty")
	}
	srv := newTestServer(t, Config{Shards: 2})
	rep, err := RunLoadgen(context.Background(), LoadgenConfig{
		Addr: srv.Addr().String(), Stream: s,
		Conns: 2, Sessions: 3, Batch: 64,
		Verify: true, Predictor: headlineConfig(),
	})
	if err != nil {
		t.Fatalf("RunLoadgen: %v", err)
	}
	if !rep.Verified {
		t.Error("report not marked verified")
	}
	if want := uint64(3 * s.Len()); rep.Traces != want {
		t.Errorf("Traces = %d, want %d", rep.Traces, want)
	}
}
