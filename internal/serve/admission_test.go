package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"pathtrace/internal/metrics"
	"pathtrace/internal/predictor"
	"pathtrace/internal/trace"
)

// takeTraces returns the first n traces of the shared test stream.
func takeTraces(t *testing.T, n int) []trace.Trace {
	t.Helper()
	s := captureTestStream(t)
	out := make([]trace.Trace, 0, n)
	cur := s.Cursor()
	var tr trace.Trace
	for len(out) < n && cur.Next(&tr) {
		out = append(out, tr)
	}
	if len(out) < n {
		t.Fatalf("test stream too short: %d < %d traces", len(out), n)
	}
	return out
}

// TestTokenBucket drives the bucket with explicit clocks, so refill,
// priming, capping and the retry-after hint are all exact.
func TestTokenBucket(t *testing.T) {
	var b tokenBucket
	t0 := time.Unix(1000, 0)

	// A fresh bucket holds a full burst.
	if ra, ok := b.take(10, 10, 10, t0); !ok || ra != 0 {
		t.Fatalf("fresh take(burst) = %v, %v; want admitted", ra, ok)
	}
	// Now empty: the next token is 100ms away at 10/s.
	ra, ok := b.take(1, 10, 10, t0)
	if ok {
		t.Fatal("take from empty bucket admitted")
	}
	if ra < 90*time.Millisecond || ra > 110*time.Millisecond {
		t.Fatalf("retry-after = %v, want ~100ms", ra)
	}
	// Refill: 500ms at 10/s = 5 tokens.
	if _, ok := b.take(5, 10, 10, t0.Add(500*time.Millisecond)); !ok {
		t.Fatal("refilled tokens not granted")
	}
	// Tokens cap at burst: after a long idle stretch, exactly one burst
	// is available, not rate*idle.
	t1 := t0.Add(time.Hour)
	if _, ok := b.take(10, 10, 10, t1); !ok {
		t.Fatal("capped bucket refused a burst")
	}
	if _, ok := b.take(1, 10, 10, t1); ok {
		t.Fatal("bucket granted more than burst after idle")
	}

	// Oversized requests are clamped to the bucket depth: a full bucket
	// admits them (charging a whole burst) instead of refusing forever.
	var big tokenBucket
	if _, ok := big.take(1e9, 10, 10, t0); !ok {
		t.Fatal("oversized request refused by a full bucket")
	}
	if _, ok := big.take(1, 10, 10, t0); ok {
		t.Fatal("oversized request did not drain the bucket")
	}

	// The minimum hint is 1ms, never 0: a zero hint would make clients
	// spin.
	var tiny tokenBucket
	tiny.take(1, 1e9, 1, t0)
	if ra, ok := tiny.take(1, 1e9, 1, t0); ok || ra < time.Millisecond {
		t.Fatalf("hint = %v, %v; want >= 1ms refusal", ra, ok)
	}
}

func TestTokenBucketRefund(t *testing.T) {
	var b tokenBucket
	t0 := time.Unix(2000, 0)
	if _, ok := b.take(8, 1, 8, t0); !ok {
		t.Fatal("initial take refused")
	}
	b.refund(8)
	if _, ok := b.take(8, 1, 8, t0); !ok {
		t.Fatal("refunded tokens not spendable")
	}
}

func TestAdmissionCostModel(t *testing.T) {
	traces := make([]trace.Trace, 7)
	for _, tc := range []struct {
		req  request
		want float64
	}{
		{request{op: OpUpdateBatch, traces: traces[:1]}, 1},
		{request{op: OpUpdateBatch, traces: traces}, 7},
		{request{op: OpPredictBatch, traces: traces}, 7},
		{request{op: OpOpen}, 0},
		{request{op: OpStats}, 0},
		{request{op: OpSnapshot}, 0},
		{request{op: OpRestore}, 0},
		{request{op: OpHello}, 0},
	} {
		if got := admissionCost(&tc.req); got != tc.want {
			t.Errorf("admissionCost(op %#x) = %v, want %v", tc.req.op, got, tc.want)
		}
	}
}

// TestThrottleCountersExactlyOnce rejects a known number of requests
// and requires the server-wide and per-client throttle counters to
// say exactly that number — the "exactly once per rejection" contract
// the fleet reporter's rates depend on.
func TestThrottleCountersExactlyOnce(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 1, Limits: Limits{
		// One token, refilling at a rate that cannot matter within the
		// test's lifetime: exactly one work op is ever admitted.
		PerClientRate: 0.001, PerClientBurst: 1,
	}})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetClientTag("metered")

	const session = 7
	if _, err := openRetry(cl, session); err != nil {
		t.Fatal(err)
	}
	traces := takeTraces(t, 1)
	if _, _, _, err := cl.UpdateBatch(session, traces); err != nil {
		t.Fatalf("first update (full bucket): %v", err)
	}

	const rejected = 5
	for i := 0; i < rejected; i++ {
		_, _, _, err := cl.UpdateBatch(session, traces)
		if !errors.Is(err, ErrThrottled) {
			t.Fatalf("update %d: err = %v, want ErrThrottled", i, err)
		}
		var te *ThrottledError
		if !errors.As(err, &te) || te.RetryAfter < time.Millisecond {
			t.Fatalf("update %d: no usable retry-after hint in %v", i, err)
		}
	}

	// Control ops stay exempt while throttled: the client can still
	// observe and recover.
	if _, err := cl.Stats(session); err != nil {
		t.Fatalf("stats while throttled: %v", err)
	}
	if _, err := cl.Snapshot(session); err != nil {
		t.Fatalf("snapshot while throttled: %v", err)
	}

	st := srv.Stats()
	if st.Throttled != rejected {
		t.Errorf("server Throttled = %d, want %d", st.Throttled, rejected)
	}
	found := false
	for _, cs := range st.Clients {
		if cs.Client == "metered" {
			found = true
			if cs.Throttled != rejected {
				t.Errorf("client throttled = %d, want %d", cs.Throttled, rejected)
			}
			if cs.Rounds != 1 {
				t.Errorf("client rounds = %d, want 1 (only the admitted trace)", cs.Rounds)
			}
			if cs.Requests == 0 || cs.Bytes == 0 {
				t.Errorf("client accounting empty: %+v", cs)
			}
		}
	}
	if !found {
		t.Fatalf("no client stats for tag %q: %+v", "metered", st.Clients)
	}
}

// TestOverloadCountersExactlyOnce checks the other rejection class the
// same way: every ErrOverloaded a client saw is counted exactly once,
// both per shard and per client tag.
func TestOverloadCountersExactlyOnce(t *testing.T) {
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
			cl.SetClientTag("storm")
			session := uint64(300 + c)
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
				default:
					t.Errorf("update: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	st := srv.Stats()
	// openRetry retries also surface ErrOverloaded to clients without
	// the test counting them, so compare >=; the per-client counter and
	// the wire observations must never drift the other way (double
	// counting).
	var client ClientStats
	for _, cs := range st.Clients {
		if cs.Client == "storm" {
			client = cs
		}
	}
	if client.Client == "" {
		t.Fatalf("no client stats for storm: %+v", st.Clients)
	}
	if client.Overloads < overloads.load() {
		t.Errorf("client overloads = %d < %d observed on the wire", client.Overloads, overloads.load())
	}
	if st.Overloads < overloads.load() {
		t.Errorf("shard overloads = %d < %d observed on the wire", st.Overloads, overloads.load())
	}
	t.Logf("oks=%d overloads(wire)=%d overloads(client)=%d", oks.load(), overloads.load(), client.Overloads)
}

// TestClientTagPropagation covers the identity plumbing: a tagged
// connection accounts under its tag, an untagged one under "default",
// and an invalid hello is a per-request rejection that leaves the
// connection fully usable.
func TestClientTagPropagation(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 2})

	tagged, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tagged.Close()
	tagged.SetClientTag("alice")
	if _, err := openRetry(tagged, 1); err != nil {
		t.Fatal(err)
	}
	traces := takeTraces(t, 8)
	if _, _, _, err := tagged.UpdateBatch(1, traces); err != nil {
		t.Fatal(err)
	}

	untagged, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer untagged.Close()
	if _, err := openRetry(untagged, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := untagged.UpdateBatch(2, traces[:1]); err != nil {
		t.Fatal(err)
	}

	got := map[string]ClientStats{}
	for _, cs := range srv.Stats().Clients {
		got[cs.Client] = cs
	}
	if cs := got["alice"]; cs.Rounds != 8 {
		t.Errorf("alice rounds = %d, want 8", cs.Rounds)
	}
	if cs := got[defaultClientTag]; cs.Rounds != 1 {
		t.Errorf("default rounds = %d, want 1", cs.Rounds)
	}

	// An invalid tag (in-range length, forbidden character) is rejected
	// without killing the connection or changing its identity.
	raw, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.roundTrip(OpHello, 0, []byte(`bad"tag`)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("invalid hello: err = %v, want ErrBadRequest", err)
	}
	if _, err := openRetry(raw, 3); err != nil {
		t.Fatalf("open after rejected hello: %v", err)
	}
	if _, ok := got[`bad"tag`]; ok {
		t.Error("invalid tag minted a client entry")
	}
}

// TestRetryClientHonorsRetryAfter drives a RetryClient through a quota
// tight enough to throttle most updates: every operation must still
// succeed (the client sleeps the server's hint and retries), and the
// server must confirm throttling actually happened.
func TestRetryClientHonorsRetryAfter(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 2, Limits: Limits{
		PerClientRate: 500, PerClientBurst: 2,
	}})
	rc, err := NewRetryClient(RetryConfig{
		Addrs:     []string{srv.Addr().String()},
		ClientTag: "patient",
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	const session = 11
	if _, _, err := rc.Open(session); err != nil {
		t.Fatal(err)
	}
	traces := takeTraces(t, 1)
	for i := 0; i < 30; i++ {
		if _, _, _, err := rc.UpdateBatch(session, traces); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.Throttled == 0 {
		t.Error("quota never throttled: test proved nothing")
	}
	for _, cs := range st.Clients {
		if cs.Client == "patient" && cs.Rounds != 30 {
			t.Errorf("rounds = %d, want 30 (every update eventually admitted)", cs.Rounds)
		}
	}
}

// TestFairnessSmoke is the isolation property end to end: an aggressor
// demanding far more than its quota is throttled, while a well-behaved
// client paced under its own quota sees zero errors of any kind.
func TestFairnessSmoke(t *testing.T) {
	srv := newTestServer(t, Config{Limits: Limits{
		PerClientRate: 1000, PerClientBurst: 100,
	}})
	traces := takeTraces(t, 50)

	var wg sync.WaitGroup
	var aggressorThrottled atomic64
	var victimErr error
	deadline := time.Now().Add(400 * time.Millisecond)

	wg.Add(1)
	go func() { // aggressor: ~50k traces/s demanded against a 1k quota
		defer wg.Done()
		cl, err := Dial(srv.Addr().String())
		if err != nil {
			t.Errorf("aggressor dial: %v", err)
			return
		}
		defer cl.Close()
		cl.SetClientTag("aggressor")
		if _, err := openRetry(cl, 100); err != nil {
			t.Errorf("aggressor open: %v", err)
			return
		}
		for time.Now().Before(deadline) {
			_, _, _, err := cl.UpdateBatch(100, traces)
			switch {
			case err == nil:
			case errors.Is(err, ErrThrottled):
				aggressorThrottled.add(1)
				time.Sleep(throttleDelay(err, time.Millisecond))
			case errors.Is(err, ErrOverloaded):
				time.Sleep(time.Millisecond)
			default:
				t.Errorf("aggressor update: %v", err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // victim: ~200 traces/s, a fifth of its quota
		defer wg.Done()
		cl, err := Dial(srv.Addr().String())
		if err != nil {
			victimErr = err
			return
		}
		defer cl.Close()
		cl.SetClientTag("victim")
		if _, err := openRetry(cl, 200); err != nil {
			victimErr = fmt.Errorf("open: %w", err)
			return
		}
		for time.Now().Before(deadline) {
			if _, _, _, err := cl.UpdateBatch(200, traces[:1]); err != nil {
				victimErr = err
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()

	if victimErr != nil {
		t.Errorf("victim saw an error despite staying under quota: %v", victimErr)
	}
	if aggressorThrottled.load() == 0 {
		t.Error("aggressor was never throttled: quota not enforced")
	}
	var victim ClientStats
	for _, cs := range srv.Stats().Clients {
		if cs.Client == "victim" {
			victim = cs
		}
	}
	if victim.Throttled != 0 || victim.Overloads != 0 {
		t.Errorf("victim rejected server-side: %+v", victim)
	}
	t.Logf("aggressor throttled %d times; victim clean", aggressorThrottled.load())
}

// TestLimitzHotReload swaps quotas through the admin plane and checks
// they bind immediately — same connection, same session, nothing
// dropped.
func TestLimitzHotReload(t *testing.T) {
	srv := newTestServer(t, Config{Shards: 1, AdminAddr: "127.0.0.1:0"})
	base := "http://" + srv.AdminAddr().String() + "/limitz"

	var l Limits
	get := func() Limits {
		t.Helper()
		resp, err := http.Get(base)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out Limits
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(base, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if l = get(); l.enabled() {
		t.Fatalf("limits enabled at boot: %+v", l)
	}

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := openRetry(cl, 5); err != nil {
		t.Fatal(err)
	}
	traces := takeTraces(t, 1)
	if _, _, _, err := cl.UpdateBatch(5, traces); err != nil {
		t.Fatalf("update before limits: %v", err)
	}

	// Install a one-token quota: the next update drains it, the one
	// after is throttled — on the connection that predates the reload.
	if resp := post(`{"per_client_rate": 0.001, "per_client_burst": 1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST limits: %s", resp.Status)
	}
	if l = get(); l.PerClientRate != 0.001 || l.PerClientBurst != 1 {
		t.Fatalf("limits after POST = %+v", l)
	}
	if _, _, _, err := cl.UpdateBatch(5, traces); err != nil {
		t.Fatalf("update draining the fresh bucket: %v", err)
	}
	if _, _, _, err := cl.UpdateBatch(5, traces); !errors.Is(err, ErrThrottled) {
		t.Fatalf("update past quota: err = %v, want ErrThrottled", err)
	}

	// Reload back to unlimited: the same session flows again.
	if resp := post(`{}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST zero limits: %s", resp.Status)
	}
	if _, _, _, err := cl.UpdateBatch(5, traces); err != nil {
		t.Fatalf("update after limits removed: %v", err)
	}

	// Malformed reloads must not change anything.
	if resp := post(`{"bogus_field": 1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %s", resp.Status)
	}
	if resp := post(`{"per_client_rate": -1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative rate accepted: %s", resp.Status)
	}
	if l = get(); l.enabled() {
		t.Errorf("rejected POSTs still changed limits: %+v", l)
	}
}

// TestAdminServerTimeouts is the slowloris regression: the admin
// listener must carry header/read/idle bounds so a peer dribbling
// bytes cannot pin goroutines forever.
func TestAdminServerTimeouts(t *testing.T) {
	srv := newTestServer(t, Config{AdminAddr: "127.0.0.1:0"})
	hs := srv.admin.srv
	if hs.ReadHeaderTimeout <= 0 {
		t.Error("admin ReadHeaderTimeout unset: slowloris regression")
	}
	if hs.ReadTimeout <= 0 {
		t.Error("admin ReadTimeout unset")
	}
	if hs.IdleTimeout <= 0 {
		t.Error("admin IdleTimeout unset")
	}
	if hs.WriteTimeout <= 0 {
		t.Error("admin WriteTimeout unset")
	}
}

// TestShardEnqueueStopRace hammers shard.run from many goroutines while
// stop shuts the shard. No interleaving may panic or race (run with
// -race), and no request may do work once stop has returned: after
// the hammer, a request is refused and the session count is frozen.
func TestShardEnqueueStopRace(t *testing.T) {
	backend, err := predictor.ResolveBackend(headlineConfig())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		sh := newShard(0, backend, headlineConfig(), nil, nil, 4,
			newShardMetrics(metrics.NewRegistry(), 0, "hybrid", nil))

		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					// A false return is either wait-bound backpressure or
					// the shard shutting down mid-hammer; both are legal.
					req := request{op: OpOpen, session: uint64(g*1000 + i)}
					var resp shardResp
					sh.run(&req, &resp)
				}
			}(g)
		}
		close(start)
		sh.stop() // races with the requests by design
		sh.mu.Lock()
		stopped := len(sh.sessions)
		sh.mu.Unlock()
		wg.Wait()

		req := request{op: OpOpen, session: 1 << 40}
		var resp shardResp
		if sh.run(&req, &resp) {
			t.Fatal("run succeeded after stop")
		}
		if n := len(sh.sessions); n != stopped {
			t.Fatalf("%d sessions at stop, %d after: requests ran after stop", stopped, n)
		}
	}
}

// TestBackoffForBoundaries pins the overflow fix: with a huge base the
// old shifted backoff (base << attempt) wrapped negative; the doubling
// loop must saturate at MaxBackoff for every attempt, including the
// ones that used to overflow.
func TestBackoffForBoundaries(t *testing.T) {
	mk := func(base, max time.Duration) *RetryClient {
		rc, err := NewRetryClient(RetryConfig{
			Addrs:       []string{"127.0.0.1:1"},
			BaseBackoff: base,
			MaxBackoff:  max,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rc
	}

	rc := mk(20*time.Millisecond, time.Second)
	for attempt, want := range map[int]time.Duration{
		0: 20 * time.Millisecond,
		1: 40 * time.Millisecond,
		3: 160 * time.Millisecond,
		5: 640 * time.Millisecond,
		6: time.Second,
	} {
		if got := rc.backoffFor(attempt); got != want {
			t.Errorf("backoffFor(%d) = %v, want %v", attempt, got, want)
		}
	}

	// The regression: a base over ~2.56h made base<<20 wrap negative.
	huge := mk(3*time.Hour, 5*time.Hour)
	for _, attempt := range []int{0, 1, 20, 62, 63, 1000} {
		got := huge.backoffFor(attempt)
		if got <= 0 {
			t.Fatalf("backoffFor(%d) = %v: overflowed", attempt, got)
		}
		if got > 5*time.Hour {
			t.Fatalf("backoffFor(%d) = %v: exceeded MaxBackoff", attempt, got)
		}
	}
	if got := huge.backoffFor(0); got != 3*time.Hour {
		t.Errorf("backoffFor(0) = %v, want the base", got)
	}
	for _, attempt := range []int{1, 63} {
		if got := huge.backoffFor(attempt); got != 5*time.Hour {
			t.Errorf("backoffFor(%d) = %v, want saturation at MaxBackoff", attempt, got)
		}
	}
}
