package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"pathtrace/internal/metrics"
)

// This file is the fairness half of overload handling. The bound on
// requests waiting per shard (ErrOverloaded) protects the server from
// unbounded waiting, but it is FIFO-blind: one hot client can keep
// every shard at its bound and starve well-behaved sessions. Admission
// control sits ahead of the shards: every work-carrying request is
// charged against a per-client token bucket (and optionally a global
// one) before it may wait on a shard, so overload degrades per client —
// the aggressor is throttled, everyone else proceeds.
//
// Throttle rejections are typed (ErrThrottled, wire status 0x06) and
// carry a retry-after hint, so a cooperating client backs off exactly
// as long as the deficit requires instead of guessing. Control-plane
// ops (Open, Stats, Snapshot, Restore, Hello) are exempt: a throttled
// client must still be able to re-establish, observe, and drain — only
// prediction work (Predict, Update, and the batch ops) is metered, at
// one token per trace.

// Limits configures admission control. The zero value disables it.
// Rates are in traces (Predict/Update rounds) per second; bursts are
// bucket depths in traces. A request costing more than the bucket depth
// is charged the full depth instead of being unadmittable, so a batch
// larger than the burst still passes once the bucket is full — the
// long-run rate is what the bucket enforces.
type Limits struct {
	// PerClientRate is each client tag's sustained trace budget per
	// second (0 = unlimited). Untagged connections share one bucket.
	PerClientRate float64 `json:"per_client_rate"`
	// PerClientBurst is the per-client bucket depth (default: one
	// second's worth of PerClientRate).
	PerClientBurst float64 `json:"per_client_burst"`
	// GlobalRate caps the server's total admitted trace rate across all
	// clients (0 = unlimited).
	GlobalRate float64 `json:"global_rate"`
	// GlobalBurst is the global bucket depth (default: one second's
	// worth of GlobalRate).
	GlobalBurst float64 `json:"global_burst"`
}

// DecodeLimits reads admission limits in the JSON shape /limitz serves,
// which is also the ntpd -limits-file format. Unknown keys are rejected,
// so a typo in a fleet config fails loudly instead of silently leaving a
// quota unlimited, and so is any negative rate or burst.
func DecodeLimits(r io.Reader) (Limits, error) {
	var l Limits
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return Limits{}, fmt.Errorf("bad limits: %w", err)
	}
	if l.PerClientRate < 0 || l.PerClientBurst < 0 || l.GlobalRate < 0 || l.GlobalBurst < 0 {
		return Limits{}, errors.New("bad limits: rates and bursts must be >= 0")
	}
	return l, nil
}

func (l Limits) enabled() bool { return l.PerClientRate > 0 || l.GlobalRate > 0 }

func (l Limits) withDefaults() Limits {
	if l.PerClientRate > 0 && l.PerClientBurst <= 0 {
		l.PerClientBurst = l.PerClientRate
	}
	if l.GlobalRate > 0 && l.GlobalBurst <= 0 {
		l.GlobalBurst = l.GlobalRate
	}
	return l
}

// tokenBucket is a mutex-guarded lazy-refill token bucket. Rate and
// burst are passed per call rather than stored, so a hot-reloaded
// Limits takes effect on the very next request with no bucket rebuild
// (accumulated tokens are simply re-capped at the new burst).
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
	primed bool
}

// take charges n tokens. When the bucket cannot cover them it charges
// nothing and reports how long the caller should wait for the deficit
// to refill. A fresh bucket starts full (burst tokens).
func (b *tokenBucket) take(n, rate, burst float64, now time.Time) (retryAfter time.Duration, ok bool) {
	if n > burst {
		n = burst // oversized requests cost a full bucket, not forever
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.primed {
		b.tokens = burst
		b.last = now
		b.primed = true
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * rate
		b.last = now
	}
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens >= n {
		b.tokens -= n
		return 0, true
	}
	wait := time.Duration((n - b.tokens) / rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait, false
}

// refund returns tokens taken by a charge that was later rejected at
// another level (per-client admitted, global refused), so a client is
// never billed for work the server refused.
func (b *tokenBucket) refund(n float64) {
	b.mu.Lock()
	b.tokens += n
	b.mu.Unlock()
}

const (
	// defaultClientTag accounts connections that never sent OpHello.
	defaultClientTag = "default"
	// maxClientTagLen bounds the wire tag.
	maxClientTagLen = 64
	// maxClientTags bounds metric cardinality: tags beyond this fold
	// into overflowClientTag rather than minting new series forever.
	maxClientTags     = 256
	overflowClientTag = "overflow"
)

// validClientTag accepts printable ASCII without the two characters
// that need escaping in Prometheus label values.
func validClientTag(tag string) bool {
	if len(tag) == 0 || len(tag) > maxClientTagLen {
		return false
	}
	for i := 0; i < len(tag); i++ {
		c := tag[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// clientState is one client tag's accounting and admission state:
// counters registered under the ntpd_client_* families plus the tag's
// token bucket. Counters are atomics; the bucket has its own lock; the
// struct is shared by every connection carrying the tag.
type clientState struct {
	tag    string
	bucket tokenBucket

	requests  *metrics.Counter // frames dispatched
	rounds    *metrics.Counter // traces run on shards
	bytes     *metrics.Counter // request payload bytes
	overloads *metrics.Counter // ErrOverloaded rejections
	throttles *metrics.Counter // ErrThrottled rejections
}

func newClientState(tag string, reg *metrics.Registry) *clientState {
	l := metrics.Labels{"client": tag}
	return &clientState{
		tag:       tag,
		requests:  reg.Counter("ntpd_client_requests_total", "Requests dispatched per client tag.", l),
		rounds:    reg.Counter("ntpd_client_rounds_total", "Predict/Update rounds (traces) admitted per client tag.", l),
		bytes:     reg.Counter("ntpd_client_bytes_total", "Request payload bytes received per client tag.", l),
		overloads: reg.Counter("ntpd_client_overload_rejects_total", "Requests rejected with ErrOverloaded per client tag.", l),
		throttles: reg.Counter("ntpd_client_throttled_total", "Requests rejected with ErrThrottled per client tag.", l),
	}
}

// clientRegistry interns clientState by tag, capping cardinality.
type clientRegistry struct {
	reg *metrics.Registry
	mu  sync.Mutex
	m   map[string]*clientState
}

func newClientRegistry(reg *metrics.Registry) *clientRegistry {
	return &clientRegistry{reg: reg, m: map[string]*clientState{}}
}

func (r *clientRegistry) get(tag string) *clientState {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cs, ok := r.m[tag]; ok {
		return cs
	}
	if len(r.m) >= maxClientTags {
		tag = overflowClientTag
		if cs, ok := r.m[tag]; ok {
			return cs
		}
	}
	cs := newClientState(tag, r.reg)
	r.m[tag] = cs
	return cs
}

func (r *clientRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// admissionCost is the token charge for one request: work-carrying ops
// pay per trace (minimum 1); control-plane ops are exempt (cost 0) so a
// throttled client can still open, observe, snapshot and recover.
func admissionCost(req *request) float64 {
	switch req.op {
	case OpUpdateBatch, OpPredictBatch:
		if n := len(req.traces); n > 1 {
			return float64(n)
		}
		return 1
	}
	return 0
}

// admit charges cost against the client's bucket and then the global
// bucket. A global refusal refunds the client charge, so clients are
// only ever billed for work that was let through to a shard. Returns the
// retry-after hint on refusal.
func (s *Server) admit(cl *clientState, cost float64) (time.Duration, bool) {
	if cost == 0 {
		return 0, true
	}
	lim := s.limits.Load()
	if lim == nil || !lim.enabled() {
		return 0, true
	}
	now := time.Now()
	charged := 0.0
	if lim.PerClientRate > 0 {
		ra, ok := cl.bucket.take(cost, lim.PerClientRate, lim.PerClientBurst, now)
		if !ok {
			return ra, false
		}
		charged = min(cost, lim.PerClientBurst)
	}
	if lim.GlobalRate > 0 {
		ra, ok := s.globalBucket.take(cost, lim.GlobalRate, lim.GlobalBurst, now)
		if !ok {
			if charged > 0 {
				cl.bucket.refund(charged)
			}
			return ra, false
		}
	}
	return 0, true
}

// SetLimits installs new admission limits atomically; in-flight and
// future requests see them on their next admission check, with no
// session or connection disturbance. The zero Limits disables
// admission control.
func (s *Server) SetLimits(l Limits) {
	l = l.withDefaults()
	s.limits.Store(&l)
}

// Limits returns the currently installed admission limits.
func (s *Server) Limits() Limits {
	if p := s.limits.Load(); p != nil {
		return *p
	}
	return Limits{}
}

// ThrottledError is the error returned for admission-control
// rejections: errors.Is(err, ErrThrottled) matches, and RetryAfter
// carries the server's hint for when the client's bucket will cover
// the request.
type ThrottledError struct {
	RetryAfter time.Duration
}

func (e *ThrottledError) Error() string {
	return fmt.Sprintf("serve: client throttled (retry after %s)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrThrottled) match.
func (e *ThrottledError) Is(target error) bool { return target == ErrThrottled }

// throttleDelay extracts the server's retry-after hint, falling back
// when the error carries none.
func throttleDelay(err error, fallback time.Duration) time.Duration {
	var te *ThrottledError
	if errors.As(err, &te) && te.RetryAfter > 0 {
		return te.RetryAfter
	}
	return fallback
}
