package serve

import (
	"errors"
	"fmt"
	"time"

	"pathtrace/internal/snapshot"
	"pathtrace/internal/trace"
)

// Fixed RetryClient policy.
const (
	// retryDialTimeout bounds each connection attempt.
	retryDialTimeout = 2 * time.Second

	// retryBudget is the fraction of successful ops earned back as
	// Overloaded-retry tokens: under sustained overload a client retries
	// at most ~20% extra load instead of amplifying the stampede.
	// retryMinBudget is the token floor that lets isolated bursts retry
	// freely.
	retryBudget    = 0.2
	retryMinBudget = 16
)

// RetryConfig shapes a RetryClient: where to connect (a failover list),
// how long to keep trying, and how aggressively to snapshot for
// recovery.
type RetryConfig struct {
	// Addrs is the server list, tried in order; on connection failure
	// the client rotates to the next address. One entry is plain
	// reconnect-with-backoff.
	Addrs []string

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

	// SnapshotEvery is 1 to hold a snapshot of every session, 0 for
	// none; NewRetryClient refuses any other value. At 1, Open and every
	// update are sent tracked, and each ack carries the session's state
	// after the request, so a snapshot costs no round trip of its own.
	// Recovery is then exact: a session lost to a crash, or left behind
	// by a restart from a stale checkpoint, is re-established from a
	// snapshot that includes every acked batch, and the stream
	// continues bit-identically. Open's answer is the one full frame;
	// every later ack is a delta merged into the held frame, so on the
	// paper backends an ack costs O(batch) on both sides, not O(table).
	// At 0 a server that lost a session still gets it re-opened, but
	// one that comes back behind the acked position fails the next
	// batch with an error wrapping ErrSeqGap rather than train across
	// the lost traces. A server whose backend cannot snapshot refuses
	// the tracked requests with ErrBadRequest.
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
	if c.SnapshotEvery != 0 && c.SnapshotEvery != 1 {
		return c, fmt.Errorf("serve: retry client SnapshotEvery %d, want 0 or 1", c.SnapshotEvery)
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
	return c, nil
}

// rcSession is the client-side recovery state for one session: the
// sequence stream position and the last acked snapshot, which at
// SnapshotEvery 1 covers every acked trace.
type rcSession struct {
	seq  uint64        // last acked trace sequence
	snap snapshot.Held // last acked snapshot frame (empty: none yet)
	gen  uint64        // the server's generation token for snap, 0 = none
}

// RetryClient wraps the wire client with the crash-safety behaviours a
// robust caller wants: per-op deadlines, exponential backoff with
// deterministic jitter on reconnect, failover across a server list,
// budgeted retries on overload, and transparent session
// re-establishment from the last acked snapshot when a server comes
// back empty-handed. Safe for one goroutine at a time per instance
// (like Client, run one per worker).
//
// Every operation runs through one retry loop with one policy, bounded
// by MaxElapsed per call:
//
//	error                     action                                  fails when
//	ErrThrottled              sleep the retry-after hint, same conn   the hint crosses MaxElapsed
//	ErrOverloaded             spend a budget token, pause             no token left, or past MaxElapsed
//	                          BaseBackoff, same conn
//	ErrUnknownSession         re-establish (Restore the last acked    past MaxElapsed, or the re-establish
//	                          snapshot, else Open), then rerun        error, classified by this table
//	ErrSeqGap, when a         the same                                the same
//	snapshot is held
//	ErrDraining, ErrFrame,    drop the conn, rotate the address,      the backoff crosses MaxElapsed
//	transport errors          back off, redial
//	ErrBadRequest,            fail fast                               at once
//	ErrBadSnapshot,
//	any other ErrSeqGap
//
// Each successful call earns back retryBudget of a token.
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
		tokens:   retryMinBudget,
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
		c, err := DialTimeout(addr, retryDialTimeout)
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
	rc.tokens = min(rc.tokens+retryBudget, retryMinBudget*8)
}

func (rc *RetryClient) spendToken() bool {
	if rc.tokens < 1 {
		return false
	}
	rc.tokens--
	return true
}

// redial reports whether err calls for dropping the connection and
// retrying on a fresh one: transport errors, deadlines, a draining
// peer, a bad frame. The typed application rejections are handled
// without a redial, or fail fast.
func redial(err error) bool {
	switch {
	case errors.Is(err, ErrOverloaded),
		errors.Is(err, ErrThrottled),
		errors.Is(err, ErrUnknownSession),
		errors.Is(err, ErrBadSnapshot),
		errors.Is(err, ErrBadRequest),
		errors.Is(err, ErrSeqGap):
		return false
	}
	return true
}

// do is the retry loop every RetryClient operation runs through: it
// runs op on the live connection until op succeeds, the policy in the
// RetryClient comment fails it, or MaxElapsed passes. what names the
// operation in errors.
func (rc *RetryClient) do(session uint64, what string, op func(*Client) error) error {
	deadline := time.Now().Add(rc.cfg.MaxElapsed)
	s := rc.session(session)
	for attempt := 0; ; attempt++ {
		c, err := rc.conn()
		if err == nil {
			if err = op(c); err == nil {
				rc.earnToken()
				return nil
			}
			// The server lost the session (it restarted empty, or never
			// had it), or came back behind the acked position (it
			// restarted from a stale checkpoint) while a frame is held,
			// which covers that position: re-establish, then rerun op,
			// whose resend the server dedups against the restored state.
			lost := errors.Is(err, ErrUnknownSession) ||
				errors.Is(err, ErrSeqGap) && s.snap.Len() > 0
			if lost && time.Now().Before(deadline) {
				if err = rc.establish(c, session, s); err == nil {
					continue
				}
			}
		}
		switch {
		case errors.Is(err, ErrThrottled):
			if rc.sleepThrottle(err, deadline) {
				continue
			}
		case errors.Is(err, ErrOverloaded):
			if !rc.spendToken() {
				return fmt.Errorf("serve: %s session %d: retry budget exhausted: %w", what, session, err)
			}
			// Overload is backpressure, not failure: short fixed pause,
			// same connection.
			time.Sleep(rc.cfg.BaseBackoff)
			if time.Now().Before(deadline) {
				continue
			}
		case !redial(err):
			// Fail fast: no retry can make the request valid.
		default:
			if c != nil {
				rc.dropConn()
			}
			if rc.sleepBackoff(attempt, deadline) {
				continue
			}
		}
		return fmt.Errorf("serve: %s session %d: %w", what, session, err)
	}
}

// establish makes the server know the session: restore from the last
// acked snapshot when one exists, else a plain (idempotent) open. On
// success the server's duplicate detector is aligned with rc's state.
func (rc *RetryClient) establish(c *Client, session uint64, s *rcSession) error {
	if s.snap.Len() > 0 {
		// The restored session has no tracked snapshot: the next one is
		// a full frame.
		s.gen = 0
		_, err := c.Restore(session, s.snap.Frame())
		return err
	}
	_, lastSeq, err := c.Open(session)
	if err == nil && lastSeq > s.seq {
		// The server already knew the session (it survived, or
		// restored it from a checkpoint) and is ahead of a fresh
		// counter; adopt its position.
		s.seq = lastSeq
	}
	return err
}

func (rc *RetryClient) session(id uint64) *rcSession {
	s, ok := rc.sessions[id]
	if !ok {
		s = &rcSession{}
		rc.sessions[id] = s
	}
	return s
}

// Open creates (or re-attaches to) a session, retrying across
// reconnects, and seeds the session's recovery state. At SnapshotEvery
// 1, a session with no held frame takes one at once, so even a crash
// before the first update recovers exactly: Open sends a tracked
// update of no traces, whose ack carries the session's full frame and
// starts the server's change record, so the first real ack is already
// a delta. A failure of that update fails Open.
func (rc *RetryClient) Open(session uint64) (shard uint32, lastSeq uint64, err error) {
	s := rc.session(session)
	err = rc.do(session, "open", func(c *Client) (err error) {
		shard, lastSeq, err = c.Open(session)
		if err != nil {
			return err
		}
		s.seq = max(s.seq, lastSeq)
		if rc.cfg.SnapshotEvery == 1 && s.snap.Len() == 0 {
			_, _, _, s.gen, err = c.UpdateBatchSnapshot(session, 0, nil, 0, &s.snap)
		}
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	return shard, s.seq, nil
}

// UpdateBatch delivers one batch with exactly-once semantics across
// crashes. The batch covers the session's next per-trace sequence
// range [s.seq+1, s.seq+1+len(traces)); a lost ack is resolved by the
// server's suffix-replay dedup (a resend, or a resend against a
// restored replica that had applied only part of the batch, trains
// exactly the unseen suffix), and a server that lost the session
// entirely is re-fed the last acked snapshot before the batch is
// resent. At SnapshotEvery 1 the batch goes tracked, and its ack
// brings the held frame up to date in the same round trip; the ack is
// taken whole or not at all, so a torn, dropped or unmergeable one is
// resent like a lost ack, and the generation the resend names no
// longer matches, which draws a full frame. The held snapshot then
// always includes every acked batch, so the recovered stream is
// bit-identical to an uninterrupted one. The session's acked position
// advances only when the call returns, so while it runs s.seq is the
// sequence before the batch: the position a gap must be recovered to.
// The counts returned are those of the ack taken, which after a resend
// report what the server answering it still needed.
func (rc *RetryClient) UpdateBatch(session uint64, traces []trace.Trace) (skipped, applied, correct uint32, err error) {
	if len(traces) == 0 {
		return 0, 0, 0, nil
	}
	s := rc.session(session)
	start := s.seq + 1
	err = rc.do(session, "update", func(c *Client) (err error) {
		if rc.cfg.SnapshotEvery == 0 {
			skipped, applied, correct, err = c.UpdateBatchSeq(session, start, traces)
			return err
		}
		// On error the generation comes back as sent.
		skipped, applied, correct, s.gen, err = c.UpdateBatchSnapshot(session, start, traces, s.gen, &s.snap)
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	s.seq = max(s.seq, start+uint64(len(traces))-1)
	return skipped, applied, correct, nil
}

// Stats fetches the session's predictor counters, retrying across
// reconnects and re-establishing the session if the server lost it.
func (rc *RetryClient) Stats(session uint64) (st SessionStats, err error) {
	err = rc.do(session, "stats", func(c *Client) (err error) {
		st, err = c.Stats(session)
		return err
	})
	return st, err
}
