package serve

import (
	"errors"
	"fmt"
	"time"

	"pathtrace/internal/predictor"
	"pathtrace/internal/trace"
)

// RetryConfig shapes a RetryClient: where to connect (a failover list),
// how long to keep trying, and how aggressively to snapshot for
// recovery.
type RetryConfig struct {
	// Addrs is the server list, tried in order; on connection failure
	// the client rotates to the next address. One entry is plain
	// reconnect-with-backoff.
	Addrs []string

	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration

	// OpTimeout bounds each network round trip (default 10s).
	OpTimeout time.Duration

	// MaxElapsed bounds one logical operation including all retries,
	// reconnects and re-establishment (default 30s).
	MaxElapsed time.Duration

	// BaseBackoff and MaxBackoff shape the exponential reconnect
	// backoff (defaults 20ms and 1s); jitter is applied on top.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// Seed drives the backoff jitter deterministically: two clients
	// with different seeds desynchronize, one client reproduces its
	// exact retry schedule.
	Seed uint64

	// RetryBudget is the fraction of successful ops earned back as
	// Overloaded-retry tokens (default 0.2): under sustained overload a
	// client retries at most ~20% extra load instead of amplifying the
	// stampede. MinBudget is the token floor that lets isolated bursts
	// retry freely (default 16).
	RetryBudget float64
	MinBudget   int

	// SnapshotEvery takes a session snapshot after every N acked
	// updates (0 disables). With 1, recovery is exact: a session lost
	// to a crash is re-established from a snapshot that includes every
	// acked batch, and the stream continues bit-identically. Larger
	// values trade recovery fidelity for round trips.
	SnapshotEvery int

	// ClientTag names this client to the server for per-client
	// accounting and admission control; it is announced on every
	// connection the client establishes (including failover and
	// reconnect). Empty means untagged.
	ClientTag string
}

func (c RetryConfig) withDefaults() (RetryConfig, error) {
	if len(c.Addrs) == 0 {
		return c, errors.New("serve: retry client needs at least one address")
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 10 * time.Second
	}
	if c.MaxElapsed <= 0 {
		c.MaxElapsed = 30 * time.Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 20 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 0.2
	}
	if c.MinBudget <= 0 {
		c.MinBudget = 16
	}
	return c, nil
}

// rcSession is the client-side recovery state for one session: the
// sequence stream position and the last acked snapshot.
type rcSession struct {
	seq       uint64 // last acked trace sequence
	snap      []byte // last acked snapshot frame (nil: none yet)
	sinceSnap int    // acked batches since the last snapshot
}

// RetryClient wraps the wire client with the crash-safety behaviours a
// robust caller wants: per-op deadlines, exponential backoff with
// deterministic jitter on reconnect, failover across a server list,
// budgeted retries on overload, and transparent session
// re-establishment from the last acked snapshot when a server comes
// back empty-handed. Safe for one goroutine at a time per instance
// (like Client, run one per worker).
type RetryClient struct {
	cfg      RetryConfig
	c        *Client // live connection, nil when down
	addrIdx  int
	rngState uint64
	tokens   float64
	sessions map[uint64]*rcSession
}

// NewRetryClient builds a retrying client. No connection is made until
// the first operation.
func NewRetryClient(cfg RetryConfig) (*RetryClient, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &RetryClient{
		cfg:      cfg,
		rngState: cfg.Seed,
		tokens:   float64(cfg.MinBudget),
		sessions: map[uint64]*rcSession{},
	}, nil
}

// Close drops the current connection. Session recovery state is kept:
// a later call reconnects and re-establishes as needed.
func (rc *RetryClient) Close() error {
	if rc.c != nil {
		err := rc.c.Close()
		rc.c = nil
		return err
	}
	return nil
}

// rand returns the next deterministic jitter draw in [0, 1).
func (rc *RetryClient) rand() float64 {
	rc.rngState++
	return float64(splitmix64(rc.rngState^rc.cfg.Seed)>>11) / float64(1<<53)
}

// backoffFor returns attempt's exponential backoff: BaseBackoff doubled
// attempt times, saturating at MaxBackoff. Doubling with a pre-check
// (rather than a single shift) cannot overflow: the previous
// `BaseBackoff << min(attempt, 20)` wrapped for BaseBackoff above
// ~2.5h, and whether the wrapped value tripped the `<= 0` guard was
// luck of the sign bit — an overflowed-but-positive duration slept
// essentially forever.
func (rc *RetryClient) backoffFor(attempt int) time.Duration {
	d := rc.cfg.BaseBackoff
	for ; attempt > 0; attempt-- {
		if d >= rc.cfg.MaxBackoff/2 {
			return rc.cfg.MaxBackoff
		}
		d *= 2
	}
	return min(d, rc.cfg.MaxBackoff)
}

// sleepBackoff sleeps the attempt's backoff (exponential, capped,
// ±25% jitter) unless that would cross the deadline, in which case it
// reports false.
func (rc *RetryClient) sleepBackoff(attempt int, deadline time.Time) bool {
	d := rc.backoffFor(attempt)
	d += time.Duration((rc.rand() - 0.5) * 0.5 * float64(d))
	if time.Now().Add(d).After(deadline) {
		return false
	}
	time.Sleep(d)
	return true
}

// sleepThrottle honors a throttled rejection's retry-after hint,
// unless that would cross the deadline (reports false). Unlike
// overload, throttling needs no budget and no connection drop: the
// server told the client exactly when its bucket will cover the
// request, so retrying then adds no amplification.
func (rc *RetryClient) sleepThrottle(err error, deadline time.Time) bool {
	d := throttleDelay(err, rc.cfg.BaseBackoff)
	if time.Now().Add(d).After(deadline) {
		return false
	}
	time.Sleep(d)
	return true
}

// conn returns the live connection, dialing through the address list
// if needed. Does not retry: the caller owns backoff.
func (rc *RetryClient) conn() (*Client, error) {
	if rc.c != nil {
		return rc.c, nil
	}
	var lastErr error
	for range rc.cfg.Addrs {
		addr := rc.cfg.Addrs[rc.addrIdx%len(rc.cfg.Addrs)]
		c, err := DialTimeout(addr, rc.cfg.DialTimeout)
		if err != nil {
			lastErr = err
			rc.addrIdx++
			continue
		}
		c.SetOpTimeout(rc.cfg.OpTimeout)
		if rc.cfg.ClientTag != "" {
			c.SetClientTag(rc.cfg.ClientTag)
		}
		rc.c = c
		return c, nil
	}
	return nil, fmt.Errorf("serve: all %d addresses unreachable: %w", len(rc.cfg.Addrs), lastErr)
}

// dropConn discards a connection after a transport error and rotates
// to the next address.
func (rc *RetryClient) dropConn() {
	if rc.c != nil {
		rc.c.Close()
		rc.c = nil
	}
	rc.addrIdx++
}

// earnToken/spendToken implement the overload retry budget.
func (rc *RetryClient) earnToken() {
	rc.tokens = min(rc.tokens+rc.cfg.RetryBudget, float64(rc.cfg.MinBudget)*8)
}

func (rc *RetryClient) spendToken() bool {
	if rc.tokens < 1 {
		return false
	}
	rc.tokens--
	return true
}

// retryable reports whether err warrants dropping the connection and
// retrying (transport errors, server draining). Typed application
// rejections — including throttling, which must sleep the hint on the
// same connection — are handled by the callers.
func retryable(err error) bool {
	switch {
	case errors.Is(err, ErrOverloaded),
		errors.Is(err, ErrThrottled),
		errors.Is(err, ErrUnknownSession),
		errors.Is(err, ErrBadSnapshot),
		errors.Is(err, ErrBadRequest):
		return false
	}
	return true // transport error, deadline, draining peer, bad frame
}

// establish makes the server know the session: restore from the last
// acked snapshot when one exists, else a plain (idempotent) open. On
// success the server's duplicate detector is aligned with rc's state.
func (rc *RetryClient) establish(c *Client, session uint64, s *rcSession) error {
	if s.snap != nil {
		_, err := c.Restore(session, s.snap)
		return err
	}
	_, lastSeq, err := c.Open(session)
	if err == nil && lastSeq > s.seq {
		// The server already knew the session (it survived, or a peer
		// received it in a drain handoff) and is ahead of a fresh
		// counter; adopt its position.
		s.seq = lastSeq
	}
	return err
}

// Open creates (or re-attaches to) a session, retrying across
// reconnects, and seeds the session's recovery state. With snapshots
// enabled, the freshly opened session is snapshotted immediately so
// even a crash before the first update recovers exactly.
func (rc *RetryClient) Open(session uint64) (shard uint32, lastSeq uint64, err error) {
	deadline := time.Now().Add(rc.cfg.MaxElapsed)
	s := rc.session(session)
	for attempt := 0; ; attempt++ {
		c, cerr := rc.conn()
		if cerr == nil {
			shard, lastSeq, err = c.Open(session)
			if err == nil {
				if lastSeq > s.seq {
					s.seq = lastSeq
				}
				if rc.cfg.SnapshotEvery > 0 && s.snap == nil {
					if frame, serr := c.Snapshot(session); serr == nil {
						s.snap, s.sinceSnap = frame, 0
					}
				}
				rc.earnToken()
				return shard, s.seq, nil
			}
			if errors.Is(err, ErrThrottled) {
				if !rc.sleepThrottle(err, deadline) {
					return 0, 0, fmt.Errorf("serve: open session %d: %w", session, err)
				}
				continue
			}
			if !retryable(err) {
				return 0, 0, err
			}
			rc.dropConn()
		} else {
			err = cerr
		}
		if !rc.sleepBackoff(attempt, deadline) {
			return 0, 0, fmt.Errorf("serve: open session %d: %w", session, err)
		}
	}
}

func (rc *RetryClient) session(id uint64) *rcSession {
	s, ok := rc.sessions[id]
	if !ok {
		s = &rcSession{}
		rc.sessions[id] = s
	}
	return s
}

// UpdateBatch delivers one batch with exactly-once semantics across
// crashes. The batch covers the session's next per-trace sequence
// range [s.seq+1, s.seq+1+len(traces)); a lost ack is resolved by the
// server's suffix-replay dedup (a resend, or a resend against a
// restored replica that had applied only part of the batch, trains
// exactly the unseen suffix), and a server that lost the session
// entirely is re-fed the last acked snapshot before the batch is
// resent. With SnapshotEvery == 1 the acked snapshot always includes
// every previously acked batch, so the recovered stream is
// bit-identical to an uninterrupted one.
func (rc *RetryClient) UpdateBatch(session uint64, traces []trace.Trace) (skipped, applied, correct uint32, err error) {
	if len(traces) == 0 {
		return 0, 0, 0, nil
	}
	deadline := time.Now().Add(rc.cfg.MaxElapsed)
	s := rc.session(session)
	start := s.seq + 1
	end := start + uint64(len(traces)) - 1
	sent := false // batch acked; still snapshotting
	for attempt := 0; ; attempt++ {
		c, cerr := rc.conn()
		if cerr != nil {
			err = cerr
			if !rc.sleepBackoff(attempt, deadline) {
				return 0, 0, 0, fmt.Errorf("serve: update session %d: %w", session, err)
			}
			continue
		}
		if !sent {
			skipped, applied, correct, err = c.UpdateBatchSeq(session, start, traces)
			switch {
			case err == nil:
				if end > s.seq {
					s.seq = end
				}
				s.sinceSnap++
				rc.earnToken()
				sent = true
			case errors.Is(err, ErrThrottled):
				// Admission control: sleep the server's retry-after hint
				// and resend on the same connection.
				if !rc.sleepThrottle(err, deadline) {
					return 0, 0, 0, fmt.Errorf("serve: update session %d: %w", session, err)
				}
				continue
			case errors.Is(err, ErrOverloaded):
				if !rc.spendToken() {
					return 0, 0, 0, fmt.Errorf("serve: update session %d: retry budget exhausted: %w", session, err)
				}
				// Overload is backpressure, not failure: short fixed
				// pause, same connection.
				time.Sleep(rc.cfg.BaseBackoff)
				if time.Now().After(deadline) {
					return 0, 0, 0, fmt.Errorf("serve: update session %d: %w", session, err)
				}
				continue
			case errors.Is(err, ErrUnknownSession):
				if eerr := rc.establish(c, session, s); eerr != nil && !rc.sleepBackoff(attempt, deadline) {
					return 0, 0, 0, fmt.Errorf("serve: update session %d: re-establish: %w", session, eerr)
				}
				// Resend the same range: the restored server skips
				// whatever prefix it already holds.
				continue
			default:
				if !retryable(err) {
					return 0, 0, 0, err
				}
				rc.dropConn()
				if !rc.sleepBackoff(attempt, deadline) {
					return 0, 0, 0, fmt.Errorf("serve: update session %d: %w", session, err)
				}
				continue
			}
		}
		if rc.cfg.SnapshotEvery <= 0 || s.sinceSnap < rc.cfg.SnapshotEvery {
			return skipped, applied, correct, nil
		}
		frame, serr := c.Snapshot(session)
		if serr == nil {
			s.snap, s.sinceSnap = frame, 0
			return skipped, applied, correct, nil
		}
		if errors.Is(serr, ErrUnknownSession) {
			// Lost between ack and snapshot: re-establish and resend the
			// same range — suffix dedup absorbs whatever the restored
			// state already covers.
			rc.establish(c, session, s)
			sent = false
			continue
		}
		if !retryable(serr) {
			return skipped, applied, correct, nil // acked; stale snapshot is survivable
		}
		rc.dropConn()
		if !rc.sleepBackoff(attempt, deadline) {
			return skipped, applied, correct, nil
		}
	}
}

// Stats fetches the session's predictor counters, retrying across
// reconnects and re-establishing the session if the server lost it.
func (rc *RetryClient) Stats(session uint64) (SessionStats, error) {
	deadline := time.Now().Add(rc.cfg.MaxElapsed)
	s := rc.session(session)
	var err error
	for attempt := 0; ; attempt++ {
		c, cerr := rc.conn()
		if cerr == nil {
			var st SessionStats
			st, err = c.Stats(session)
			if err == nil {
				rc.earnToken()
				return st, nil
			}
			if errors.Is(err, ErrThrottled) {
				if !rc.sleepThrottle(err, deadline) {
					return SessionStats{}, fmt.Errorf("serve: stats session %d: %w", session, err)
				}
				continue
			}
			if errors.Is(err, ErrUnknownSession) {
				if eerr := rc.establish(c, session, s); eerr == nil {
					continue
				}
			}
			if !retryable(err) {
				return SessionStats{}, err
			}
			rc.dropConn()
		} else {
			err = cerr
		}
		if !rc.sleepBackoff(attempt, deadline) {
			return SessionStats{}, fmt.Errorf("serve: stats session %d: %w", session, err)
		}
	}
}

// Predict returns the session predictor's current prediction,
// retrying across reconnects.
func (rc *RetryClient) Predict(session uint64) (predictor.Prediction, error) {
	deadline := time.Now().Add(rc.cfg.MaxElapsed)
	s := rc.session(session)
	var err error
	for attempt := 0; ; attempt++ {
		c, cerr := rc.conn()
		if cerr == nil {
			var p predictor.Prediction
			p, err = c.Predict(session)
			if err == nil {
				rc.earnToken()
				return p, nil
			}
			if errors.Is(err, ErrThrottled) {
				if !rc.sleepThrottle(err, deadline) {
					return predictor.Prediction{}, fmt.Errorf("serve: predict session %d: %w", session, err)
				}
				continue
			}
			if errors.Is(err, ErrUnknownSession) {
				if eerr := rc.establish(c, session, s); eerr == nil {
					continue
				}
			}
			if !retryable(err) {
				return predictor.Prediction{}, err
			}
			rc.dropConn()
		} else {
			err = cerr
		}
		if !rc.sleepBackoff(attempt, deadline) {
			return predictor.Prediction{}, fmt.Errorf("serve: predict session %d: %w", session, err)
		}
	}
}
