// Package serve turns the single-process next-trace predictor into a
// network service: a TCP server hosting N predictor shards, a binary
// wire protocol with batched operations, and a load generator that
// replays recorded trace streams (internal/stream) as wire traffic.
//
// The design goal is that serving must not change prediction: a session
// is pinned to one shard, every session owns its own predictor, and a
// shard runs one request at a time under its lock, each to completion on
// the goroutine of the connection that read it, so the trace order a
// session's predictor observes over the network is exactly the order of
// the replayed stream. Server-side predictor stats for a session are
// therefore bit-identical to an in-process Stream.Replay of the same
// stream — the property the load generator's -verify mode asserts.
//
// # Wire format
//
// Every frame is a little-endian length-prefixed payload on a plain TCP
// stream:
//
//	frame    := u32 payloadLen | payload            (payloadLen <= MaxFrame)
//	request  := u8 op | u32 reqID | u64 sessionID | body
//	response := u8 op|0x80 | u32 reqID | u8 status | body
//
// Operations and their bodies:
//
//	OpOpen     req:  (empty)
//	           resp: u32 shard | u64 lastSeq
//	OpStats    req:  (empty)
//	           resp: u32 shard | session Stats
//	                 (Stats is 6 * u64: predictions, correct, cold,
//	                 fromSecondary, altCorrect, altPresent)
//	OpSnapshot req:  (empty)
//	           resp: one internal/snapshot frame
//	OpRestore  req:  one internal/snapshot frame
//	           resp: u32 shard
//	OpHello    req:  client tag (1..64 printable ASCII bytes)
//	           resp: (empty)
//
// The batch ops are the only way to train a session. Each runs one
// full Predict/Update round per trace — the paper's immediate-update
// regime — in a single frame and a single pass through the shard:
//
//	OpUpdateBatch  req:  u64 startSeq | u32 count | count * trace (8 bytes each)
//	                     [| u64 gen]
//	               resp: u32 skipped | u32 applied | u32 correct
//	                     [| u64 newGen | frame or delta]
//	OpPredictBatch req:  u64 startSeq | u32 count | count * trace
//	               resp: u32 skipped | u32 applied | u32 correct |
//	                     applied * prediction (19 bytes each; the
//	                     prediction made before traces[skipped+i])
//
// # Exactly-once updates
//
// Sequence numbers are per trace: a frame with startSeq s and count n
// covers sequences [s, s+n), and a session remembers the last sequence
// it applied. A frame that overlaps that point (a client resend after
// a lost ack, or a restore from a snapshot older than the last ack)
// skips the already-applied prefix, reported as skipped, and trains
// only the unseen suffix, so crash/retry cycles leave the predictor
// exactly where an uninterrupted run would. correct counts the applied
// suffix only. A frame that starts past the last applied sequence plus
// one would train across traces the session never saw — the server
// restarted from a checkpoint older than the client's acks — so it is
// refused with StatusSeqGap and trains nothing; the client restores a
// snapshot covering the sequence before the frame, then resends.
// startSeq 0 opts out of duplicate and gap detection. OpOpen returns
// the session's last applied sequence so a reconnecting client can seed
// its counter.
//
// # Session snapshots
//
// OpSnapshot serializes a session's complete predictor state into a
// checksummed internal/snapshot frame; OpRestore installs such a frame
// as a (new or replacement) session. Together they are the crash-safety
// primitives: clients re-establish lost sessions from their last acked
// snapshot on whatever server they reach.
// Restore validates the frame end to end — checksum, structure, and
// that the saved geometry matches the server's configured predictor —
// and rejects anything else with StatusBadSnapshot, so a corrupt or
// adversarial frame can neither install garbage state nor force large
// allocations.
//
// A client that keeps a session's frame current after every ack gets
// it in the ack itself: its OpUpdateBatch ends with the generation
// token of the frame it holds (0 when it holds none), and the answer,
// written under the same shard lock right after the batch, goes on
// with a new token for the client to hold next and the session's state
// after the batch. When the token names the session's last answered
// generation, that state is an internal/snapshot delta envelope: the
// state's small mutable part plus only the table entries changed
// since, O(the batches between) rather than O(table), which the client
// merges into its frame (snapshot.Held). Otherwise — the first tracked
// ack, a lost or torn answer, a restore, a second client tracking the
// same session, an unbounded table that grew since — it is a full
// frame, and the session starts tracking its writes from it. A refused
// batch (a sequence gap, an unknown session, throttled, overloaded)
// trains nothing and carries no state; a batch whose state does not
// encode (an unbounded session past snapshot.MaxEncoded) trains and is
// answered StatusBadRequest.
// OpPredictBatch takes no token. OpSnapshot always gets a bare full
// frame and leaves that tracking alone; so do checkpoints and drain
// spills.
//
// A trace on the wire is one little-endian u64 carrying exactly the
// fields the predictor consumes: the identifier and the call/return
// metadata the Return History Stack needs:
//
//	bits 0-35 id | bit 36 endsInRet | bits 37-63 calls
//
// The server derives the hashed identifier from the identifier (the
// paper's fixed hash, §3.2), so no request can name a hash that
// disagrees with its trace, and every word decodes to a trace a
// session can save and restore. The client refuses, before sending, a
// trace whose identifier exceeds 36 bits or whose call count is outside
// [0, 2^27). A prediction still carries its hashed identifier: a
// cost-reduced predictor predicts only the hash, so it cannot be
// derived from the rest of the prediction.
//
// Responses carry a status byte; non-OK statuses map to the typed
// errors ErrOverloaded, ErrDraining, ErrUnknownSession, ErrBadRequest,
// ErrBadSnapshot, ErrThrottled and ErrSeqGap.
// Overload is the backpressure signal: the session's shard already had
// its bound of requests waiting, and the client is expected to back off
// and retry.
//
// # Client identity and admission control
//
// OpHello tags a connection with a client identity; every request on
// the connection is then accounted under that tag (per-client
// request/round/byte/rejection counters on /metrics).
// When the server runs with admission limits, the batch ops are
// charged against the tag's token bucket and the global bucket before
// they may wait on a shard; a refusal is StatusThrottled and the response body
// carries a u32 retry-after hint in milliseconds — unlike overload,
// throttling tells the client exactly when its bucket will cover the
// request. Control-plane ops (Open, Stats, Snapshot, Restore, Hello)
// are never throttled, so a throttled client can still re-establish
// and observe its sessions.
package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
	"pathtrace/internal/trace"
)

// Ops. The response op is the request op with the high bit set. 0x02
// and 0x03 are retired: they parse as unknown ops.
const (
	OpOpen     = 0x01
	OpStats    = 0x04
	OpSnapshot = 0x05
	OpRestore  = 0x06
	// Batched rounds: one frame carries count traces with per-trace
	// sequence numbers; see the package comment for dedup semantics.
	OpPredictBatch = 0x07
	OpUpdateBatch  = 0x08
	// OpHello tags the connection with a client identity (body: the tag,
	// 1..64 printable ASCII bytes). Connection-scoped, handled before any
	// shard: every subsequent request on the connection is
	// accounted (and admission-controlled) under the tag. Optional —
	// untagged connections account under the "default" tag.
	OpHello = 0x09

	respBit = 0x80
)

// Status codes.
const (
	StatusOK             = 0x00
	StatusOverloaded     = 0x01
	StatusDraining       = 0x02
	StatusUnknownSession = 0x03
	StatusBadRequest     = 0x04
	StatusBadSnapshot    = 0x05
	// StatusThrottled reports an admission-control rejection: the client
	// exceeded its quota (or the server its global cap). The response
	// body carries a u32 retry-after hint in milliseconds.
	StatusThrottled = 0x06
	// StatusSeqGap reports a batch whose start sequence is past the
	// session's last applied sequence plus one. Nothing was trained.
	StatusSeqGap = 0x07
)

// Typed protocol errors, one per non-OK status.
var (
	// ErrOverloaded reports that the session's shard already had its
	// bound of requests waiting — the server's backpressure signal.
	// Retryable after backoff.
	ErrOverloaded = errors.New("serve: shard overloaded")
	// ErrDraining reports that the server is shutting down and no
	// longer accepts work. Not retryable on this connection.
	ErrDraining = errors.New("serve: server draining")
	// ErrUnknownSession reports an op on a session that was never
	// opened (or was opened on a different server instance).
	ErrUnknownSession = errors.New("serve: unknown session")
	// ErrBadRequest reports a structurally invalid request.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrBadSnapshot reports an OpRestore frame that failed validation:
	// corrupt, truncated, wrong version, or saved for a predictor
	// geometry other than this server's. Not retryable as-is.
	ErrBadSnapshot = errors.New("serve: bad snapshot")
	// ErrThrottled reports an admission-control rejection: the client's
	// quota (or the global cap) is exhausted. Retryable after the
	// retry-after hint; errors carrying a hint are *ThrottledError and
	// match this sentinel via errors.Is.
	ErrThrottled = errors.New("serve: client throttled")
	// ErrSeqGap reports a sequenced batch that starts past the
	// session's last applied sequence plus one: the server holds an
	// older state than the client acked (it restarted from a stale
	// checkpoint). The batch trained nothing. A client recovers by
	// restoring a frame that covers the sequence before the batch,
	// then resending; without one the acked traces in between are
	// gone.
	ErrSeqGap = errors.New("serve: sequence gap")
)

// statusErr maps a wire status to its typed error (nil for StatusOK).
func statusErr(status uint8) error {
	switch status {
	case StatusOK:
		return nil
	case StatusOverloaded:
		return ErrOverloaded
	case StatusDraining:
		return ErrDraining
	case StatusUnknownSession:
		return ErrUnknownSession
	case StatusBadRequest:
		return ErrBadRequest
	case StatusBadSnapshot:
		return ErrBadSnapshot
	case StatusThrottled:
		return ErrThrottled
	case StatusSeqGap:
		return ErrSeqGap
	default:
		return fmt.Errorf("serve: unknown status 0x%02x", status)
	}
}

// statusOf maps a shard error back to its wire status.
func statusOf(err error) uint8 {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, ErrDraining):
		return StatusDraining
	case errors.Is(err, ErrUnknownSession):
		return StatusUnknownSession
	case errors.Is(err, ErrBadSnapshot):
		return StatusBadSnapshot
	case errors.Is(err, ErrThrottled):
		return StatusThrottled
	case errors.Is(err, ErrSeqGap):
		return StatusSeqGap
	default:
		return StatusBadRequest
	}
}

// Frame and batch bounds. A decoder rejects anything larger before
// allocating: streams cross machines now, so frames are untrusted.
const (
	// MaxBatch bounds the traces in one batch request.
	MaxBatch = 8192
	// MaxFrame bounds a frame payload: the largest of a tracked batch
	// of MaxBatch traces, an OpRestore carrying a full session
	// snapshot, and a tracked batch answer carrying one (a delta is
	// never larger than the full frame of the same state).
	MaxFrame = max(
		reqHeaderBytes+updateHeaderBytes+MaxBatch*wireTraceBytes+snapGenBytes,
		reqHeaderBytes+snapshot.MaxEncoded,
		respHeaderBytes+batchRespBytes+snapGenBytes+snapshot.MaxEncoded,
	)
)

const (
	reqHeaderBytes    = 1 + 4 + 8 // op, reqID, sessionID
	respHeaderBytes   = 1 + 4 + 1 // op|respBit, reqID, status
	updateHeaderBytes = 8 + 4     // seq, count
	batchRespBytes    = 4 + 4 + 4 // skipped, applied, correct
	openRespBytes     = 4 + 8     // shard, lastSeq
	snapGenBytes      = 8         // a tracked batch's generation token
	wireTraceBytes    = 8
	statsBytes        = 6 * 8
)

// ErrFrame reports a malformed or oversized frame; connections that
// produce one are closed (the stream can no longer be trusted to be
// frame-aligned).
var ErrFrame = errors.New("serve: malformed frame")

var le = binary.LittleEndian

// writeFrame writes one length-prefixed payload into w's buffer. The
// header is staged in w itself, so writing a frame allocates nothing.
func writeFrame(w *bufio.Writer, payload []byte) error {
	if w.Available() < 4 {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	// The header fits the available buffer, so this Write cannot fail
	// unless w already holds an error, which the payload Write returns.
	w.Write(le.AppendUint32(w.AvailableBuffer(), uint32(len(payload))))
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed payload into buf (grown as
// needed) and returns the payload slice. io.EOF is returned unwrapped
// when the stream ends cleanly between frames. The header is read
// through r's own buffer, so reading a frame allocates nothing once buf
// fits. A buf too small for the payload is regrown in step with the
// bytes that arrive (readGrowing), so a header that declares more than
// its peer sends costs O(what was sent), not O(MaxFrame).
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) == 0 {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short header: %v", ErrFrame, err)
	}
	n := le.Uint32(hdr)
	r.Discard(4) // cannot fail: Peek buffered the 4 bytes
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: payload %d exceeds %d", ErrFrame, n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf, err = readGrowing(r, int(n))
	} else {
		buf = buf[:n]
		_, err = io.ReadFull(r, buf)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", ErrFrame, err)
	}
	return buf, nil
}

// frameChunk is the first allocation of a payload readGrowing reads.
const frameChunk = 64 << 10

// readGrowing reads an n-byte payload into a new buffer that starts at
// frameChunk bytes and doubles only once full, up to exactly n. It
// allocates under 4 bytes per byte read plus frameChunk.
func readGrowing(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, frameChunk))
	for {
		k, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err != nil || len(buf) == n {
			return buf, err
		}
		grown := make([]byte, len(buf), min(n, 2*cap(buf)))
		copy(grown, buf)
		buf = grown
	}
}

// Lanes of a wire trace above its trace.IDBits identifier bits (the
// layout is in the package comment).
const (
	wireRetBit     = trace.IDBits
	wireCallsShift = trace.IDBits + 1
)

// putTrace encodes tr into buf (wireTraceBytes long). It reports false,
// writing nothing, when tr's identifier or call count does not fit its
// lane.
func putTrace(buf []byte, tr *trace.Trace) bool {
	if tr.ID>>trace.IDBits != 0 || uint64(tr.Calls)>>(64-wireCallsShift) != 0 {
		return false
	}
	w := uint64(tr.ID) | uint64(tr.Calls)<<wireCallsShift
	if tr.EndsInRet {
		w |= 1 << wireRetBit
	}
	le.PutUint64(buf, w)
	return true
}

// getTrace decodes one wire trace into dst. Every word decodes: the
// hash is derived from the identifier, and the fields the wire omits
// are zero.
func getTrace(buf []byte, dst *trace.Trace) {
	w := le.Uint64(buf)
	id := trace.ID(w & (1<<trace.IDBits - 1))
	*dst = trace.Trace{ID: id, Hash: id.Hash(), Calls: int(w >> wireCallsShift), EndsInRet: w>>wireRetBit&1 != 0}
}

// putStats encodes predictor stats (6 u64 counters) into buf.
func putStats(buf []byte, s predictor.Stats) {
	le.PutUint64(buf[0:], s.Predictions)
	le.PutUint64(buf[8:], s.Correct)
	le.PutUint64(buf[16:], s.Cold)
	le.PutUint64(buf[24:], s.FromSecondary)
	le.PutUint64(buf[32:], s.AltCorrect)
	le.PutUint64(buf[40:], s.AltPresent)
}

// getStats decodes predictor stats from buf.
func getStats(buf []byte) predictor.Stats {
	return predictor.Stats{
		Predictions:   le.Uint64(buf[0:]),
		Correct:       le.Uint64(buf[8:]),
		Cold:          le.Uint64(buf[16:]),
		FromSecondary: le.Uint64(buf[24:]),
		AltCorrect:    le.Uint64(buf[32:]),
		AltPresent:    le.Uint64(buf[40:]),
	}
}

// putPrediction encodes a prediction (flags, id, alt, hashed).
func putPrediction(buf []byte, p predictor.Prediction) {
	var flags uint8
	if p.Valid {
		flags |= 1
	}
	if p.AltValid {
		flags |= 2
	}
	if p.FromSecondary {
		flags |= 4
	}
	buf[0] = flags
	le.PutUint64(buf[1:], uint64(p.ID))
	le.PutUint64(buf[9:], uint64(p.Alt))
	le.PutUint16(buf[17:], uint16(p.Hashed))
}

const predictionBytes = 1 + 8 + 8 + 2

// getPrediction decodes a prediction.
func getPrediction(buf []byte) predictor.Prediction {
	return predictor.Prediction{
		Valid:         buf[0]&1 != 0,
		AltValid:      buf[0]&2 != 0,
		FromSecondary: buf[0]&4 != 0,
		ID:            trace.ID(le.Uint64(buf[1:])),
		Alt:           trace.ID(le.Uint64(buf[9:])),
		Hashed:        trace.HashedID(le.Uint16(buf[17:])),
	}
}

// frameBuffered reports whether r already holds a whole frame, so the
// next readFrame returns without waiting on the connection.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	hdr, _ := r.Peek(4)
	return r.Buffered()-4 >= int(le.Uint32(hdr))
}

// request is one connection's request: the decoded frame plus the
// connection's reused buffers. A connection has one request in flight
// at a time, so it owns a single request value, and every frame is
// decoded into it. The buffers grow lazily to the largest frame seen
// and are never shrunk.
type request struct {
	op        uint8
	reqID     uint32
	session   uint64
	seq       uint64        // batch ops: exactly-once sequence of traces[0], 0 = none
	traces    []trace.Trace // batch ops: decoded into the reused buffer
	blob      []byte        // OpRestore only: the snapshot frame, aliasing the payload
	tracked   bool          // OpUpdateBatch only: the client named the generation it holds
	gen       uint64        // OpUpdateBatch only: that generation, 0 = none
	client    string        // OpHello only: the client tag (copied)
	wireBytes int           // payload size on the wire, for per-client byte accounting

	preds []predictor.Prediction // reused: PredictBatch's predictions, written by the shard
	resp  []byte                 // reused: the encoded response
}

// parseRequest decodes a request payload into req, keeping req's
// buffers. req.blob aliases payload, so it is valid only until the next
// frame is read into payload's buffer. On error req is left partly
// decoded.
func parseRequest(req *request, payload []byte) error {
	if len(payload) < reqHeaderBytes {
		return fmt.Errorf("%w: request %d bytes", ErrFrame, len(payload))
	}
	*req = request{
		op:        payload[0],
		reqID:     le.Uint32(payload[1:]),
		session:   le.Uint64(payload[5:]),
		wireBytes: len(payload),
		traces:    req.traces[:0],
		preds:     req.preds,
		resp:      req.resp,
	}
	body := payload[reqHeaderBytes:]
	switch req.op {
	case OpOpen, OpStats, OpSnapshot:
		if len(body) != 0 {
			return fmt.Errorf("%w: op 0x%02x with %d-byte body", ErrFrame, req.op, len(body))
		}
	case OpUpdateBatch, OpPredictBatch:
		if len(body) < updateHeaderBytes {
			return fmt.Errorf("%w: batch body %d bytes", ErrFrame, len(body))
		}
		req.seq = le.Uint64(body)
		count := le.Uint32(body[8:])
		if count > MaxBatch {
			return fmt.Errorf("%w: batch %d exceeds %d", ErrFrame, count, MaxBatch)
		}
		switch n := updateHeaderBytes + int(count)*wireTraceBytes; {
		case len(body) == n:
		case len(body) == n+snapGenBytes && req.op == OpUpdateBatch:
			req.tracked, req.gen = true, le.Uint64(body[n:])
		default:
			return fmt.Errorf("%w: batch %d in %d-byte body", ErrFrame, count, len(body))
		}
		// The range [startSeq, startSeq+count) must not wrap uint64.
		if req.seq != 0 && count != 0 && req.seq+uint64(count)-1 < req.seq {
			return fmt.Errorf("%w: seq range %d+%d wraps", ErrFrame, req.seq, count)
		}
		if cap(req.traces) < int(count) {
			req.traces = make([]trace.Trace, count)
		}
		req.traces = req.traces[:count]
		for i := range req.traces {
			getTrace(body[updateHeaderBytes+i*wireTraceBytes:], &req.traces[i])
		}
	case OpRestore:
		if len(body) == 0 || len(body) > snapshot.MaxEncoded {
			return fmt.Errorf("%w: restore body %d bytes", ErrFrame, len(body))
		}
		req.blob = body
	case OpHello:
		// Structural bound only; tag content is validated where the
		// connection handles the op, which answers StatusBadRequest
		// without killing the (frame-aligned) connection.
		if len(body) == 0 || len(body) > maxClientTagLen {
			return fmt.Errorf("%w: hello tag %d bytes", ErrFrame, len(body))
		}
		req.client = string(body)
	default:
		return fmt.Errorf("%w: unknown op 0x%02x", ErrFrame, req.op)
	}
	return nil
}

// appendResponseHeader appends a response header for req with status.
func appendResponseHeader(buf []byte, op uint8, reqID uint32, status uint8) []byte {
	var hdr [respHeaderBytes]byte
	hdr[0] = op | respBit
	le.PutUint32(hdr[1:], reqID)
	hdr[5] = status
	return append(buf, hdr[:]...)
}
