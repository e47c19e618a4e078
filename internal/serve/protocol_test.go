package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
	"pathtrace/internal/trace"
)

func TestTraceWireRoundTrip(t *testing.T) {
	id := trace.MakeID(0x1234, 0x2b)
	for _, in := range []trace.Trace{
		{ID: id, Hash: id.Hash(), Calls: 2, EndsInRet: true},
		{ID: 1<<trace.IDBits - 1, Hash: trace.ID(1<<trace.IDBits - 1).Hash(), Calls: 1<<(64-wireCallsShift) - 1},
		{},
	} {
		var buf [wireTraceBytes]byte
		if !putTrace(buf[:], &in) {
			t.Fatalf("putTrace refused %+v", in)
		}
		// The wire omits the hash: whatever the sender claims, the
		// receiver derives it from the identifier.
		claimed := in
		claimed.Hash ^= 0x3ff
		var again [wireTraceBytes]byte
		putTrace(again[:], &claimed)
		if again != buf {
			t.Errorf("%+v: the claimed hash reached the wire", in)
		}
		out := trace.Trace{StartPC: 0x5678, Len: 16, NumBr: 5, EndsHalt: true}
		getTrace(buf[:], &out)
		if !reflect.DeepEqual(out, in) {
			t.Errorf("round trip: got %+v, want %+v", out, in)
		}
	}

	// A trace the wire cannot carry is refused, and nothing is written.
	for name, tr := range map[string]trace.Trace{
		"id wider than IDBits": {ID: 1 << trace.IDBits},
		"negative calls":       {ID: id, Calls: -1},
		"calls past the lane":  {ID: id, Calls: 1 << (64 - wireCallsShift)},
	} {
		buf := [wireTraceBytes]byte{0xaa}
		if putTrace(buf[:], &tr) {
			t.Errorf("%s: putTrace accepted %+v", name, tr)
		}
		if buf != [wireTraceBytes]byte{0xaa} {
			t.Errorf("%s: a refused trace wrote %x", name, buf)
		}
	}
}

func TestStatsWireRoundTrip(t *testing.T) {
	in := predictor.Stats{
		Predictions: 100, Correct: 90, Cold: 3,
		FromSecondary: 11, AltCorrect: 2, AltPresent: 7,
	}
	var buf [statsBytes]byte
	putStats(buf[:], in)
	if out := getStats(buf[:]); out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestPredictionWireRoundTrip(t *testing.T) {
	cases := []predictor.Prediction{
		{},
		{Valid: true, ID: trace.MakeID(0x40, 1), Hashed: 0x3ff},
		{Valid: true, AltValid: true, FromSecondary: true,
			ID: trace.MakeID(0x80, 2), Alt: trace.MakeID(0x84, 0)},
	}
	for i, in := range cases {
		var buf [predictionBytes]byte
		putPrediction(buf[:], in)
		if out := getPrediction(buf[:]); out != in {
			t.Errorf("case %d: got %+v, want %+v", i, out, in)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	// A small writer buffer makes frames straddle flushes.
	bw := bufio.NewWriterSize(&buf, 16)
	payloads := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{0xab}, 1000), {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}}
	for _, p := range payloads {
		if err := writeFrame(bw, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(&buf, 16)
	var scratch []byte
	for i, want := range payloads {
		got, err := readFrame(br, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		scratch = got
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d: got %x, want %x", i, got, want)
		}
	}
	if _, err := readFrame(br, scratch); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
	// A stream cut inside a header is a malformed frame, not a clean end.
	if _, err := readFrame(bufio.NewReader(bytes.NewReader([]byte{1, 0})), nil); !errors.Is(err, ErrFrame) {
		t.Errorf("torn header: err = %v, want ErrFrame", err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	le.PutUint32(hdr[:], MaxFrame+1)
	buf.Write(hdr[:])
	if _, err := readFrame(bufio.NewReader(&buf), nil); !errors.Is(err, ErrFrame) {
		t.Errorf("oversize frame: err = %v, want ErrFrame", err)
	}
}

// batchFrame builds a request payload for op carrying a batch body of
// count zeroed traces starting at sequence seq, plus extra bytes (or
// minus, when negative).
func batchFrame(op uint8, seq uint64, count uint32, extra int) []byte {
	b := make([]byte, reqHeaderBytes+updateHeaderBytes+int(count)*wireTraceBytes+extra)
	b[0] = op
	le.PutUint64(b[reqHeaderBytes:], seq)
	le.PutUint32(b[reqHeaderBytes+8:], count) // count follows the u64 sequence
	return b
}

func TestParseRequestRejectsMalformed(t *testing.T) {
	okUpdate := func(count uint32, extra int) []byte { return batchFrame(OpUpdateBatch, 0, count, extra) }
	cases := map[string][]byte{
		"empty":        {},
		"short header": {OpOpen, 0, 0},
		"unknown op":   make([]byte, reqHeaderBytes), // op 0x00
		"open with body": func() []byte {
			b := make([]byte, reqHeaderBytes+1)
			b[0] = OpOpen
			return b
		}(),
		"update short body":    okUpdate(2, -wireTraceBytes),
		"update long body":     okUpdate(2, 3),
		"update no count":      func() []byte { b := make([]byte, reqHeaderBytes); b[0] = OpUpdateBatch; return b }(),
		"update batch too big": okUpdate(MaxBatch+1, 0),
		"retired op 0x02":      func() []byte { b := make([]byte, reqHeaderBytes); b[0] = 0x02; return b }(),
		"retired op 0x03":      batchFrame(0x03, 1, 2, 0),
		// Only OpUpdateBatch takes a generation token.
		"tracked predict":   batchFrame(OpPredictBatch, 1, 2, snapGenBytes),
		"tracked snapshot":  func() []byte { b := make([]byte, reqHeaderBytes+snapGenBytes); b[0] = OpSnapshot; return b }(),
		"update half token": okUpdate(2, snapGenBytes/2),
	}
	for name, payload := range cases {
		var req request
		if err := parseRequest(&req, payload); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want ErrFrame", name, err)
		}
	}

	// And a well-formed update parses.
	good := okUpdate(2, 0)
	var req request
	if err := parseRequest(&req, good); err != nil {
		t.Fatalf("good update: %v", err)
	}
	if req.op != OpUpdateBatch || len(req.traces) != 2 || req.tracked {
		t.Errorf("good update: parsed %+v", req)
	}
}

// TestParseTrackedUpdate: an OpUpdateBatch that ends in a generation
// token parses as tracked, with its traces and its token, up to a full
// MaxBatch, and that largest tracked request fits MaxFrame.
func TestParseTrackedUpdate(t *testing.T) {
	for _, count := range []uint32{0, 3, MaxBatch} {
		payload := batchFrame(OpUpdateBatch, 7, count, snapGenBytes)
		le.PutUint64(payload[len(payload)-snapGenBytes:], 0xfeedface)
		if len(payload) > MaxFrame {
			t.Fatalf("tracked batch of %d: %d-byte payload exceeds MaxFrame %d", count, len(payload), MaxFrame)
		}
		var req request
		if err := parseRequest(&req, payload); err != nil {
			t.Fatalf("tracked batch of %d: %v", count, err)
		}
		if !req.tracked || req.gen != 0xfeedface || len(req.traces) != int(count) || req.seq != 7 {
			t.Errorf("tracked batch of %d: parsed tracked=%v gen=%#x traces=%d seq=%d", count, req.tracked, req.gen, len(req.traces), req.seq)
		}
	}
	// An answer carrying a frame of the largest size the snapshot codec
	// writes fits too.
	if n := respHeaderBytes + batchRespBytes + snapGenBytes + snapshot.MaxEncoded; n > MaxFrame {
		t.Errorf("tracked answer of %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
}

// FuzzParseRequest fuzzes parseRequest with attacker-controlled
// payloads. It must never panic, and whatever it accepts must satisfy
// the invariants of its op: control ops carry no traces, blob or tag;
// a Restore blob and a Hello tag stay within their bounds; a batch
// carries no more traces than its bytes can honestly hold, and its
// sequence range never wraps. A connection decodes every frame into
// the same request, so each input is also decoded into a request left
// dirty by earlier frames, and that decode must equal the fresh one.
// Seeds cover one well-formed frame per op plus hostile shapes.
func FuzzParseRequest(f *testing.F) {
	// A well-formed OpPredictBatch frame...
	valid := batchFrame(OpPredictBatch, 1, 2, 0)
	le.PutUint32(valid[1:], 77)
	le.PutUint64(valid[5:], 1234)
	f.Add(valid)
	// ...and hostile shapes: oversized count, wrapping sequence range,
	// truncated body, unknown op.
	huge := append([]byte(nil), valid[:reqHeaderBytes+updateHeaderBytes]...)
	le.PutUint32(huge[reqHeaderBytes+8:], 1<<31)
	f.Add(huge)
	wrap := append([]byte(nil), valid...)
	le.PutUint64(wrap[reqHeaderBytes:], ^uint64(0))
	f.Add(wrap)
	f.Add(valid[:reqHeaderBytes+3])
	f.Add([]byte{0x7F, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// One well-formed frame for every other op, the retired 0x02 shaped
	// like the scalar peek it once was, and the retired 0x03 shaped like
	// a batch.
	withBody := func(op uint8, body string) []byte {
		b := make([]byte, reqHeaderBytes, reqHeaderBytes+len(body))
		b[0] = op
		return append(b, body...)
	}
	for _, op := range []uint8{OpOpen, 0x02, OpStats, OpSnapshot} {
		f.Add(withBody(op, ""))
	}
	f.Add(withBody(OpSnapshot, "\x01\x02\x03\x04\x05\x06\x07\x08"))
	f.Add(batchFrame(OpUpdateBatch, 1, 3, snapGenBytes))
	f.Add(batchFrame(OpPredictBatch, 1, 3, snapGenBytes))
	f.Add(withBody(OpRestore, "NTSS\x02 not a real snapshot"))
	f.Add(withBody(OpHello, "fuzz-client"))
	f.Add(batchFrame(OpUpdateBatch, 1, 3, 0))
	f.Add(batchFrame(0x03, 1, 2, 0))

	// The frames that dirty the reused request: a batch whose traces
	// have every wire bit set, then a Restore whose blob is left behind.
	dirtyBatch := batchFrame(OpUpdateBatch, 9, 16, 0)
	for i := reqHeaderBytes + updateHeaderBytes; i < len(dirtyBatch); i++ {
		dirtyBatch[i] = 0xff
	}
	dirtyRestore := withBody(OpRestore, "stale snapshot bytes")

	f.Fuzz(func(t *testing.T, payload []byte) {
		var req request
		err := parseRequest(&req, payload)

		var dirty request
		for _, p := range [][]byte{dirtyBatch, dirtyRestore} {
			if e := parseRequest(&dirty, p); e != nil {
				t.Fatalf("dirtying frame rejected: %v", e)
			}
		}
		dirty.preds = make([]predictor.Prediction, 3)
		dirty.resp = []byte("stale response")
		if derr := parseRequest(&dirty, payload); (derr == nil) != (err == nil) {
			t.Fatalf("fresh decode err %v, reused decode err %v", err, derr)
		}
		if err != nil {
			return
		}
		if !sameRequest(&req, &dirty) {
			t.Fatalf("reused decode %+v differs from fresh decode %+v", dirty, req)
		}
		if req.wireBytes != len(payload) {
			t.Fatalf("wireBytes %d for a %d-byte payload", req.wireBytes, len(payload))
		}
		switch req.op {
		case OpOpen, OpStats, OpSnapshot:
			if len(payload) != reqHeaderBytes || len(req.traces) != 0 || req.blob != nil || req.client != "" || req.seq != 0 || req.tracked || req.gen != 0 {
				t.Fatalf("control op 0x%02x decoded with a body: %+v", req.op, req)
			}
		case OpRestore:
			if len(req.blob) == 0 || len(req.blob) > snapshot.MaxEncoded || len(req.traces) != 0 {
				t.Fatalf("restore decoded with a %d-byte blob and %d traces", len(req.blob), len(req.traces))
			}
		case OpHello:
			if len(req.client) == 0 || len(req.client) > maxClientTagLen || len(req.traces) != 0 || req.blob != nil {
				t.Fatalf("hello decoded with a %d-byte tag", len(req.client))
			}
		case OpUpdateBatch, OpPredictBatch:
			n := len(req.traces)
			if n > MaxBatch {
				t.Fatalf("decoded %d traces, above MaxBatch %d", n, MaxBatch)
			}
			// Only an update takes the trailing generation token.
			token := 0
			if req.tracked {
				token = snapGenBytes
			}
			if req.tracked && req.op != OpUpdateBatch || !req.tracked && req.gen != 0 {
				t.Fatalf("op 0x%02x decoded tracked=%v gen=%d", req.op, req.tracked, req.gen)
			}
			if reqHeaderBytes+updateHeaderBytes+n*wireTraceBytes+token != len(payload) {
				t.Fatalf("decoded %d traces (tracked %v) from a %d-byte payload", n, req.tracked, len(payload))
			}
			if req.seq != 0 && n > 0 && req.seq+uint64(n)-1 < req.seq {
				t.Fatalf("accepted wrapping seq range %d+%d", req.seq, n)
			}
			if req.blob != nil || req.client != "" {
				t.Fatalf("batch decoded with a blob or tag: %+v", req)
			}
		default:
			t.Fatalf("accepted unknown op 0x%02x", req.op)
		}
	})
}

// sameRequest compares the decoded fields of two requests, ignoring the
// connection's buffers and how much capacity the traces slice has.
func sameRequest(a, b *request) bool {
	return a.op == b.op && a.reqID == b.reqID && a.session == b.session &&
		a.seq == b.seq && a.client == b.client && a.wireBytes == b.wireBytes &&
		a.tracked == b.tracked && a.gen == b.gen &&
		(a.blob == nil) == (b.blob == nil) && bytes.Equal(a.blob, b.blob) &&
		len(a.traces) == len(b.traces) &&
		(len(a.traces) == 0 || reflect.DeepEqual(a.traces, b.traces))
}

func TestStatusErrRoundTrip(t *testing.T) {
	for _, err := range []error{nil, ErrOverloaded, ErrDraining, ErrUnknownSession, ErrBadRequest, ErrBadSnapshot, ErrThrottled, ErrSeqGap} {
		if got := statusErr(statusOf(err)); !errors.Is(got, err) {
			t.Errorf("statusErr(statusOf(%v)) = %v", err, got)
		}
	}
	// Unmapped shard errors surface as bad request.
	if got := statusErr(statusOf(errors.New("boom"))); !errors.Is(got, ErrBadRequest) {
		t.Errorf("unmapped error -> %v, want ErrBadRequest", got)
	}
}
