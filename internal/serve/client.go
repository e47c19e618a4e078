package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
	"pathtrace/internal/trace"
)

// Client speaks the ntpd wire protocol over one TCP connection. Calls
// are synchronous round trips and safe for concurrent use (a mutex
// serialises the connection); run one Client per connection and
// multiple Clients for parallelism.
type Client struct {
	mu        sync.Mutex
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	reqID     uint32
	opTimeout time.Duration     // per-op deadline, 0 = none
	clientTag string            // identity sent via OpHello, "" = untagged
	helloSent bool              // OpHello delivered on this connection
	seqs      map[uint64]uint64 // per-session last acked update sequence
	buf       []byte            // request frame scratch, reused
	ubuf      []byte            // batch body scratch, reused
	rbuf      []byte            // response scratch, reused
}

// Dial connects to an ntpd server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout connects with a dial deadline.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // round-trip latency matters more than packet count
	}
	return newClient(conn), nil
}

// newClient speaks the protocol over conn.
func newClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
		seqs: map[uint64]uint64{},
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// SetOpTimeout bounds every subsequent call's network round trip: the
// connection deadline is rearmed per op, so a dead or wedged server
// fails the call instead of hanging it. Zero restores blocking calls.
func (c *Client) SetOpTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opTimeout = d
}

// SetClientTag names this connection's client identity: the tag is
// announced to the server (via OpHello, sent lazily before the next
// op), and the server accounts and admission-controls every request on
// the connection under it. Tags are 1..64 printable ASCII bytes.
func (c *Client) SetClientTag(tag string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clientTag = tag
	c.helloSent = false
}

// roundTrip sends one request frame and reads its response, returning
// the response body. Must be called with c.mu held.
func (c *Client) roundTrip(op uint8, session uint64, body []byte) ([]byte, error) {
	if op != OpHello && c.clientTag != "" && !c.helloSent {
		// Announce the connection's identity before its first real op.
		// The recursion is one level deep by construction (op == OpHello
		// skips this branch), and the hello frame is fully written and
		// acked before the outer op touches the scratch buffers.
		if _, err := c.roundTrip(OpHello, 0, []byte(c.clientTag)); err != nil {
			return nil, fmt.Errorf("serve: hello %q: %w", c.clientTag, err)
		}
		c.helloSent = true
	}
	if c.opTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opTimeout))
	}
	c.reqID++
	id := c.reqID
	c.buf = c.buf[:0]
	var hdr [reqHeaderBytes]byte
	hdr[0] = op
	le.PutUint32(hdr[1:], id)
	le.PutUint64(hdr[5:], session)
	c.buf = append(c.buf, hdr[:]...)
	c.buf = append(c.buf, body...)
	if err := writeFrame(c.bw, c.buf); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	payload, err := readFrame(c.br, c.rbuf)
	if err != nil {
		return nil, err
	}
	c.rbuf = payload
	if len(payload) < respHeaderBytes {
		return nil, fmt.Errorf("%w: response %d bytes", ErrFrame, len(payload))
	}
	if payload[0] != op|respBit {
		return nil, fmt.Errorf("%w: response op 0x%02x for request 0x%02x", ErrFrame, payload[0], op)
	}
	if got := le.Uint32(payload[1:]); got != id {
		return nil, fmt.Errorf("%w: response id %d, want %d", ErrFrame, got, id)
	}
	if err := statusErr(payload[5]); err != nil {
		if payload[5] == StatusThrottled && len(payload) >= respHeaderBytes+4 {
			// Throttled responses carry the server's retry-after hint.
			ms := le.Uint32(payload[respHeaderBytes:])
			return nil, &ThrottledError{RetryAfter: time.Duration(ms) * time.Millisecond}
		}
		return nil, err
	}
	return payload[respHeaderBytes:], nil
}

// Open creates (or re-attaches to) a session. It returns the shard the
// session is pinned to and the session's last applied update sequence;
// the client seeds its own sequence counter from it, so updates after a
// reconnect neither collide with the server's duplicate detector nor
// bypass it.
func (c *Client) Open(session uint64) (shard uint32, lastSeq uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.roundTrip(OpOpen, session, nil)
	if err != nil {
		return 0, 0, err
	}
	if len(body) != openRespBytes {
		return 0, 0, fmt.Errorf("%w: open response %d bytes", ErrFrame, len(body))
	}
	lastSeq = le.Uint64(body[4:])
	c.seqs[session] = lastSeq
	return le.Uint32(body), lastSeq, nil
}

// UpdateBatch reveals a batch of actual traces to the session's
// predictor, in order, through OpUpdateBatch — one frame, one shard
// hop, one native predictor batch sweep running the strict
// Predict/Update alternation per trace. It returns how many leading
// traces the server had already applied (skipped), how many it applied
// now, and how many of its predictions for those were correct.
//
// When the session was opened through this client, the frame covers
// the next sequence range [start, start+len) of the session's stream,
// and the client's counter advances to the end of the range only on a
// successful ack: a resend after a lost ack reuses the range, and the
// server skips the already-applied prefix and trains only the unseen
// suffix. A server that holds the session at an older position than
// the range's start (it restarted from a stale checkpoint) refuses it
// with ErrSeqGap and trains nothing. Sessions not opened here send
// sequence 0 (no duplicate or gap detection).
func (c *Client) UpdateBatch(session uint64, traces []trace.Trace) (skipped, applied, correct uint32, err error) {
	return c.batchAuto(OpUpdateBatch, session, traces, nil)
}

// PredictBatch is UpdateBatch returning the server's predictions too.
// When preds is non-nil it must be at least len(traces) long;
// preds[skipped+i] receives the prediction the server made before the
// i'th applied trace (entries for the skipped prefix are untouched).
func (c *Client) PredictBatch(session uint64, traces []trace.Trace, preds []predictor.Prediction) (skipped, applied, correct uint32, err error) {
	if preds != nil && len(preds) < len(traces) {
		return 0, 0, 0, fmt.Errorf("%w: preds %d shorter than batch %d", ErrBadRequest, len(preds), len(traces))
	}
	return c.batchAuto(OpPredictBatch, session, traces, preds)
}

// UpdateBatchSeq is UpdateBatch with an explicit start sequence, for
// callers that manage their own sequence streams (the retrying client,
// tests). Start 0 disables duplicate detection for this batch.
func (c *Client) UpdateBatchSeq(session, start uint64, traces []trace.Trace) (skipped, applied, correct uint32, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	skipped, applied, correct, _, err = c.batchSeq(OpUpdateBatch, session, start, traces, nil, nil)
	return skipped, applied, correct, err
}

// UpdateBatchSnapshot is UpdateBatchSeq that also brings h, the
// session's frame as of snapshot generation gen, up to date with the
// state the batch leaves, in the same round trip, and returns the
// generation h then holds. Pass gen 0 when h holds no frame this
// server issued. The server answers with a delta when gen is the last
// generation it issued for the session, and h merges it in place at a
// cost of O(the delta) plus a walk of h's index, one count per 4096
// table slots; otherwise it answers with a full frame, which replaces
// h once it decodes. The answer is taken whole or not at all: on any
// error h is left as it was, though the server may have trained the
// batch (a resend over the same range trains nothing twice). A session
// whose state does not encode answers ErrBadRequest, the batch trained.
func (c *Client) UpdateBatchSnapshot(session, start uint64, traces []trace.Trace, gen uint64, h *snapshot.Held) (skipped, applied, correct uint32, next uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	skipped, applied, correct, snap, err := c.batchSeq(OpUpdateBatch, session, start, traces, nil, &gen)
	if err != nil {
		return 0, 0, 0, gen, err
	}
	next, env := le.Uint64(snap), snap[snapGenBytes:]
	if !snapshot.IsDelta(env) {
		if _, err := snapshot.Decode(env); err != nil {
			return 0, 0, 0, gen, fmt.Errorf("%w: snapshot frame: %v", ErrFrame, err)
		}
		h.Set(env)
	} else if err := h.Apply(env); err != nil {
		return 0, 0, 0, gen, fmt.Errorf("%w: snapshot delta: %v", ErrFrame, err)
	}
	return skipped, applied, correct, next, nil
}

// batchAuto runs one batch op with the session's tracked sequence
// stream, advancing it on ack.
func (c *Client) batchAuto(op uint8, session uint64, traces []trace.Trace, preds []predictor.Prediction) (skipped, applied, correct uint32, err error) {
	if len(traces) == 0 {
		return 0, 0, 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var start uint64
	if last, ok := c.seqs[session]; ok {
		start = last + 1
	}
	skipped, applied, correct, _, err = c.batchSeq(op, session, start, traces, preds, nil)
	if err == nil && start != 0 {
		c.seqs[session] = start + uint64(len(traces)) - 1
	}
	return skipped, applied, correct, err
}

// batchSeq encodes and runs one batch op, tracked when gen is non-nil:
// the request then names *gen, and snap returns the answer's
// generation token and snapshot, unchecked. Must be called with c.mu
// held. An oversized batch, or a trace the wire cannot carry, is
// ErrBadRequest before anything is sent: no retry or reconnect can make
// it valid.
func (c *Client) batchSeq(op uint8, session, start uint64, traces []trace.Trace, preds []predictor.Prediction, gen *uint64) (skipped, applied, correct uint32, snap []byte, err error) {
	if len(traces) > MaxBatch {
		return 0, 0, 0, nil, fmt.Errorf("%w: batch %d exceeds MaxBatch %d", ErrBadRequest, len(traces), MaxBatch)
	}
	need := updateHeaderBytes + len(traces)*wireTraceBytes
	if gen != nil {
		need += snapGenBytes
	}
	if cap(c.ubuf) < need {
		c.ubuf = make([]byte, need)
	}
	body := c.ubuf[:need]
	le.PutUint64(body, start)
	le.PutUint32(body[8:], uint32(len(traces)))
	for i := range traces {
		if !putTrace(body[updateHeaderBytes+i*wireTraceBytes:], &traces[i]) {
			return 0, 0, 0, nil, fmt.Errorf("%w: trace %d (id %#x, %d calls) does not fit a wire trace", ErrBadRequest, i, uint64(traces[i].ID), traces[i].Calls)
		}
	}
	if gen != nil {
		le.PutUint64(body[need-snapGenBytes:], *gen)
	}
	resp, err := c.roundTrip(op, session, body)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if len(resp) < batchRespBytes {
		return 0, 0, 0, nil, fmt.Errorf("%w: batch response %d bytes", ErrFrame, len(resp))
	}
	skipped = le.Uint32(resp)
	applied = le.Uint32(resp[4:])
	correct = le.Uint32(resp[8:])
	if int(skipped)+int(applied) > len(traces) {
		return 0, 0, 0, nil, fmt.Errorf("%w: batch response covers %d+%d of %d traces", ErrFrame, skipped, applied, len(traces))
	}
	if correct > applied {
		return 0, 0, 0, nil, fmt.Errorf("%w: batch response has %d correct of %d applied", ErrFrame, correct, applied)
	}
	if gen != nil {
		if len(resp) < batchRespBytes+snapGenBytes {
			return 0, 0, 0, nil, fmt.Errorf("%w: tracked batch response %d bytes", ErrFrame, len(resp))
		}
		return skipped, applied, correct, resp[batchRespBytes:], nil
	}
	want := batchRespBytes
	if op == OpPredictBatch {
		want += int(applied) * predictionBytes
	}
	if len(resp) != want {
		return 0, 0, 0, nil, fmt.Errorf("%w: batch response %d bytes, want %d", ErrFrame, len(resp), want)
	}
	if op == OpPredictBatch && preds != nil {
		for i := 0; i < int(applied); i++ {
			preds[int(skipped)+i] = getPrediction(resp[batchRespBytes+i*predictionBytes:])
		}
	}
	return skipped, applied, correct, nil, nil
}

// Snapshot fetches the session's complete state as a checksummed
// internal/snapshot frame, suitable for Restore on this or another
// server. It leaves a tracking client's generation current: the next
// UpdateBatchSnapshot naming it still gets a delta.
func (c *Client) Snapshot(session uint64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.roundTrip(OpSnapshot, session, nil)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), body...), nil
}

// Restore installs a snapshot frame as the session's state, replacing
// whatever the server had for it. The returned shard is where the
// session now lives.
func (c *Client) Restore(session uint64, frame []byte) (shard uint32, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.roundTrip(OpRestore, session, frame)
	if err != nil {
		return 0, err
	}
	if len(body) != 4 {
		return 0, fmt.Errorf("%w: restore response %d bytes", ErrFrame, len(body))
	}
	return le.Uint32(body), nil
}

// SessionStats is the OpStats answer: where the session lives and its
// predictor counters. Shard-wide figures are on /metrics.
type SessionStats struct {
	Shard   uint32
	Session predictor.Stats
}

// Stats fetches the session's predictor counters. The snapshot is
// taken under the shard lock, strictly ordered with the session's
// updates, so after the last batch of a stream it is the stream's
// final, exact state.
func (c *Client) Stats(session uint64) (SessionStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.roundTrip(OpStats, session, nil)
	if err != nil {
		return SessionStats{}, err
	}
	if len(body) != 4+statsBytes {
		return SessionStats{}, fmt.Errorf("%w: stats response %d bytes", ErrFrame, len(body))
	}
	return SessionStats{Shard: le.Uint32(body), Session: getStats(body[4:])}, nil
}
