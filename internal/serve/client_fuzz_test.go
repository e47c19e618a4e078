package serve

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"

	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
	"pathtrace/internal/trace"
)

// scriptConn is the client end of a scripted server: reads return the
// script's bytes, then EOF, and writes are discarded. The client only
// reads and writes its connection (no op timeout is set).
type scriptConn struct {
	net.Conn
	r io.Reader
}

func (c *scriptConn) Read(b []byte) (int, error)  { return c.r.Read(b) }
func (c *scriptConn) Write(b []byte) (int, error) { return len(b), nil }

// recordConn tees everything a real server sends into rec.
type recordConn struct {
	net.Conn
	rec bytes.Buffer
}

func (c *recordConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.rec.Write(b[:n])
	return n, err
}

// Client ops the response fuzzer drives; the input's op byte picks one
// (mod clientOps), and its high bit tags the client, so an OpHello
// round trip comes first.
const (
	fuzzUpdate = iota
	fuzzPredict
	fuzzUpdateSeq
	fuzzTracked
	fuzzStats
	fuzzOpen
	fuzzSnapshot
	fuzzRestore
	clientOps
)

// clientFuzzSession is the session every fuzzed op names.
const clientFuzzSession = 7

// clientFuzzRig holds what the fuzzed ops send: a batch of traces and
// the frame a tracked batch's Held starts from, with its generation.
type clientFuzzRig struct {
	traces []trace.Trace
	frame  []byte
	gen    uint64
}

// run performs one op on c. preds and h receive what PredictBatch and
// UpdateBatchSnapshot write.
func (rig *clientFuzzRig) run(c *Client, op uint8, n int, preds []predictor.Prediction, h *snapshot.Held) (skipped, applied, correct uint32, err error) {
	if op&0x80 != 0 {
		c.SetClientTag("fuzz")
	}
	batch := rig.traces[:n]
	switch op % clientOps {
	case fuzzUpdate:
		return c.UpdateBatch(clientFuzzSession, batch)
	case fuzzPredict:
		return c.PredictBatch(clientFuzzSession, batch, preds)
	case fuzzUpdateSeq:
		return c.UpdateBatchSeq(clientFuzzSession, 5, batch)
	case fuzzTracked:
		return trackedAck(c.UpdateBatchSnapshot(clientFuzzSession, 0, batch, rig.gen, h))
	case fuzzStats:
		_, err = c.Stats(clientFuzzSession)
	case fuzzOpen:
		_, _, err = c.Open(clientFuzzSession)
	case fuzzSnapshot:
		_, err = c.Snapshot(clientFuzzSession)
	case fuzzRestore:
		_, err = c.Restore(clientFuzzSession, rig.frame)
	}
	return 0, 0, 0, err
}

// trackedAck drops UpdateBatchSnapshot's generation from its results.
func trackedAck(skipped, applied, correct uint32, _ uint64, err error) (uint32, uint32, uint32, error) {
	return skipped, applied, correct, err
}

// newClientFuzzRig starts a real server, trains the fuzz session and
// records one response stream per op as a seed: every op untagged,
// Stats tagged, and a tracked batch twice, answered first with a delta
// against the rig's frame, then, its generation gone stale, with a full
// frame.
func newClientFuzzRig(f *testing.F) *clientFuzzRig {
	srv, err := NewServer(Config{Addr: "127.0.0.1:0", Shards: 1,
		Predictor: predictor.Config{Backend: "hybrid", Depth: 3, IndexBits: 10, UseRHS: true}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	rig := &clientFuzzRig{traces: make([]trace.Trace, 64)}
	for i := range rig.traces {
		id := trace.MakeID(0x1000+uint32(i%13)*4, uint8(i%5))
		rig.traces[i] = trace.Trace{ID: id, Hash: id.Hash(), StartPC: id.StartPC()}
	}
	dial := func() (*Client, *recordConn) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			f.Fatal(err)
		}
		rc := &recordConn{Conn: conn}
		c := newClient(rc)
		f.Cleanup(func() { c.Close() })
		return c, rc
	}
	c, _ := dial()
	var h snapshot.Held
	if _, _, err := c.Open(clientFuzzSession); err != nil {
		f.Fatal(err)
	}
	if _, _, _, err := c.UpdateBatch(clientFuzzSession, rig.traces); err != nil {
		f.Fatal(err)
	}
	if _, _, _, rig.gen, err = c.UpdateBatchSnapshot(clientFuzzSession, 0, rig.traces[:8], 0, &h); err != nil {
		f.Fatal(err)
	}
	rig.frame = bytes.Clone(h.Frame())
	if _, _, _, err := c.UpdateBatch(clientFuzzSession, rig.traces[:16]); err != nil {
		f.Fatal(err)
	}

	// The first tracked seed is the delta against rig.frame only while
	// the session's tracked generation is still rig.gen; it answers with
	// a new one, so the second gets a full frame.
	preds := make([]predictor.Prediction, len(rig.traces))
	for i, op := range []uint8{fuzzTracked, fuzzTracked, fuzzUpdate, fuzzPredict, fuzzUpdateSeq, fuzzStats,
		fuzzStats | 0x80, fuzzOpen, fuzzSnapshot, fuzzRestore} {
		c, rc := dial()
		h.Set(rig.frame)
		if _, _, _, err := rig.run(c, op, 16, preds, &h); err != nil {
			f.Fatalf("op %d: %v", op, err)
		}
		if op == fuzzTracked {
			snap := rc.rec.Bytes()[4+respHeaderBytes+batchRespBytes+snapGenBytes:]
			if snapshot.IsDelta(snap) != (i == 0) {
				f.Fatalf("tracked seed %d: delta answer %v, want %v", i, snapshot.IsDelta(snap), i == 0)
			}
		}
		f.Add(op, uint8(16), bytes.Clone(rc.rec.Bytes()))
	}
	// Hostile shapes: a header that claims MaxFrame and sends nothing, a
	// batch answer that covers more traces than were sent, and one that
	// counts more correct than applied.
	f.Add(uint8(fuzzSnapshot), uint8(0), le.AppendUint32(nil, MaxFrame))
	over := func(skipped, applied, correct uint32) []byte {
		b := le.AppendUint32(nil, respHeaderBytes+batchRespBytes)
		b = append(b, OpUpdateBatch|respBit, 1, 0, 0, 0, StatusOK)
		b = le.AppendUint32(b, skipped)
		b = le.AppendUint32(b, applied)
		return le.AppendUint32(b, correct)
	}
	f.Add(uint8(fuzzUpdate), uint8(4), over(2, 3, 0))
	f.Add(uint8(fuzzUpdate), uint8(4), over(0, 2, 3))
	f.Add(uint8(fuzzTracked), uint8(0), notAFrame())
	return rig
}

// notAFrame is a scripted answer to a client's first request, a
// tracked batch of no traces: OK, nothing skipped, applied or correct,
// generation 9, and a full answer that is not a snapshot frame.
func notAFrame() []byte {
	body := "not a frame"
	b := le.AppendUint32(nil, uint32(respHeaderBytes+batchRespBytes+snapGenBytes+len(body)))
	b = append(b, OpUpdateBatch|respBit, 1, 0, 0, 0, StatusOK)
	b = append(b, make([]byte, batchRespBytes)...)
	b = le.AppendUint64(b, 9)
	return append(b, body...)
}

// FuzzClientResponse feeds a scripted server's response stream to one
// Client call: the batch ops, a tracked batch (its answer carrying a
// full frame or a delta), Stats, Open, Snapshot and Restore, optionally
// after an OpHello. The client must not panic, must allocate at most 8
// bytes per response byte plus 256 KiB, and must fail any batch answer
// that covers more traces than were sent or counts more correct than
// applied; a failed call leaves the caller's predictions and held frame
// untouched, and after a tracked answer it accepts, the held frame
// decodes (for a full answer, that is the answer's frame itself).
func FuzzClientResponse(f *testing.F) {
	rig := newClientFuzzRig(f)
	f.Fuzz(func(t *testing.T, op uint8, n uint8, resp []byte) {
		sent := int(n) % (len(rig.traces) + 1)
		preds := make([]predictor.Prediction, sent)
		for i := range preds {
			preds[i].Valid, preds[i].ID = true, trace.ID(i)
		}
		var h snapshot.Held
		h.Set(rig.frame)
		c := newClient(&scriptConn{r: bytes.NewReader(resp)})

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		skipped, applied, correct, err := rig.run(c, op, sent, preds, &h)
		runtime.ReadMemStats(&m1)
		if a, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(8*len(resp)+256<<10); a > limit {
			t.Fatalf("op %d allocated %d bytes for a %d-byte response", op%clientOps, a, len(resp))
		}

		if err != nil && !bytes.Equal(h.Frame(), rig.frame) {
			t.Fatalf("failed tracked batch (%v) changed the held frame", err)
		}
		if op%clientOps == fuzzTracked && err == nil {
			if _, derr := snapshot.Decode(h.Frame()); derr != nil {
				t.Fatalf("accepted tracked batch left a held frame that does not decode: %v", derr)
			}
		}
		if err == nil && (int(skipped)+int(applied) > sent || correct > applied) {
			t.Fatalf("accepted answer of %d skipped, %d applied, %d correct for %d traces", skipped, applied, correct, sent)
		}
		for i := range preds {
			written := err == nil && i >= int(skipped) && i < int(skipped+applied)
			if !written && preds[i] != (predictor.Prediction{Valid: true, ID: trace.ID(i)}) {
				t.Fatalf("prediction %d overwritten outside the applied range [%d, %d) (err %v)", i, skipped, skipped+applied, err)
			}
		}
	})
}

// TestUpdateBatchSnapshotRejectsCorruptFrame: a tracked batch answer
// whose full frame is not a snapshot frame fails UpdateBatchSnapshot
// with ErrFrame, and the caller keeps its generation and its held
// frame.
func TestUpdateBatchSnapshotRejectsCorruptFrame(t *testing.T) {
	b, ok := predictor.BackendByName("basic")
	if !ok {
		t.Fatal("no basic backend")
	}
	p, err := b.New(predictor.Config{Backend: "basic", Depth: 3, IndexBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	good, err := snapshot.AppendFrame(nil, clientFuzzSession, 3, b.Name, func(dst []byte) ([]byte, error) { return b.Append(dst, p) })
	if err != nil {
		t.Fatal(err)
	}
	var h snapshot.Held
	h.Set(good)
	c := newClient(&scriptConn{r: bytes.NewReader(notAFrame())})
	_, _, _, gen, err := c.UpdateBatchSnapshot(clientFuzzSession, 0, nil, 5, &h)
	if !errors.Is(err, ErrFrame) {
		t.Errorf("err = %v, want ErrFrame", err)
	}
	if gen != 5 {
		t.Errorf("generation %d after a refused answer, want 5", gen)
	}
	if !bytes.Equal(h.Frame(), good) {
		t.Error("a refused answer replaced the held frame")
	}
}
