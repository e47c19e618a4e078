package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"pathtrace/internal/predictor"
	"pathtrace/internal/trace"
)

// This file covers the connection path: each request runs to
// completion on its connection's goroutine, and the connection reuses
// one set of buffers for every request.

// appendRequest appends one length-prefixed request frame to dst.
func appendRequest(dst []byte, op uint8, reqID uint32, session uint64, body []byte) []byte {
	dst = le.AppendUint32(dst, uint32(reqHeaderBytes+len(body)))
	dst = append(dst, op)
	dst = le.AppendUint32(dst, reqID)
	dst = le.AppendUint64(dst, session)
	return append(dst, body...)
}

// batchBody encodes a batch request body: start sequence, count, traces.
func batchBody(seq uint64, traces []trace.Trace) []byte {
	b := le.AppendUint64(nil, seq)
	b = le.AppendUint32(b, uint32(len(traces)))
	for i := range traces {
		var w [wireTraceBytes]byte
		putTrace(w[:], &traces[i])
		b = append(b, w[:]...)
	}
	return b
}

// TestSlowReaderDoesNotStallShard: on a one-shard server, connection A
// pipelines MaxBatch PredictBatch frames and never reads a response, so
// its socket fills and its writes block. Connection B must still open a
// session on the same shard and complete ten PredictBatch calls, each
// within a 3 s op timeout: a response is written outside the shard
// lock, so a peer that stops reading blocks only its own connection.
func TestSlowReaderDoesNotStallShard(t *testing.T) {
	traces := streamTraces(t)
	srv := newTestServer(t, Config{Shards: 1})

	a, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	abw, abr := bufio.NewWriter(a), bufio.NewReader(a)
	a.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := abw.Write(appendRequest(nil, OpOpen, 1, 1, nil)); err != nil || abw.Flush() != nil {
		t.Fatalf("A open: %v", err)
	}
	if resp, err := readFrame(abr, nil); err != nil || resp[5] != StatusOK {
		t.Fatalf("A open: %v (response %x)", err, resp)
	}
	a.SetDeadline(time.Time{})

	big := make([]trace.Trace, MaxBatch)
	for i := range big {
		big[i] = traces[i%len(traces)]
	}
	body := batchBody(0, big) // sequence 0: every frame trains in full
	go func() {
		for id := uint32(2); id < 402; id++ {
			if _, err := a.Write(appendRequest(nil, OpPredictBatch, id, 1, body)); err != nil {
				return // the test is over and closed the connection
			}
		}
	}()
	// Let A's responses fill its socket buffers: wait until the shard
	// has served a good number of A's frames and then stops moving.
	deadline := time.Now().Add(10 * time.Second)
	for last := uint64(0); ; {
		time.Sleep(50 * time.Millisecond)
		n := srv.Stats().Traces
		if n >= 8*MaxBatch && n == last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("A's pipeline never stalled (%d traces served)", n)
		}
		last = n
	}

	b := dialT(t, srv)
	b.SetOpTimeout(3 * time.Second)
	start := time.Now()
	if _, _, err := b.Open(2); err != nil {
		t.Fatalf("B open behind a stalled reader: %v", err)
	}
	preds := make([]predictor.Prediction, 64)
	for i := 0; i < 10; i++ {
		if _, _, _, err := b.PredictBatch(2, traces[i*64:(i+1)*64], preds); err != nil {
			t.Fatalf("B predict %d behind a stalled reader: %v", i, err)
		}
	}
	t.Logf("B: open + 10 PredictBatch in %v behind a stalled reader", time.Since(start))
}

// TestPipelinedBatchesMatchReplay: one connection pipelines PredictBatch
// frames for two sessions on different shards without reading a single
// answer. The batch sizes rise and fall, so a short batch follows a long
// one into the connection's reused trace, prediction and response
// buffers. Every response must carry exactly the predictions and
// correct count of an in-process replay of its session.
func TestPipelinedBatchesMatchReplay(t *testing.T) {
	traces := streamTraces(t)
	srv := newTestServer(t, Config{Shards: 2})
	ids := []uint64{1}
	for id := uint64(2); len(ids) < 2; id++ {
		if srv.shardFor(id) != srv.shardFor(ids[0]) {
			ids = append(ids, id)
		}
	}

	var script []byte
	var reqID uint32
	want := map[uint32][]byte{} // expected response body per request ID
	refs := map[uint64]predictor.NextTracePredictor{}
	for _, id := range ids {
		reqID++
		script = appendRequest(script, OpOpen, reqID, id, nil)
		refs[id] = predictor.MustNew(headlineConfig())
	}
	seqs := map[uint64]uint64{}
	off := 0
	for i, n := range []int{200, 3, 64, 1, 257, 16, 129, 2, 300, 5, 90, 33} {
		id := ids[i%2]
		batch := traces[off : off+n]
		off += n
		preds := make([]predictor.Prediction, n)
		correct := predictor.PredictBatch(refs[id], batch, preds)
		resp := le.AppendUint32(nil, 0)
		resp = le.AppendUint32(resp, uint32(n))
		resp = le.AppendUint32(resp, uint32(correct))
		for j := range preds {
			var w [predictionBytes]byte
			putPrediction(w[:], preds[j])
			resp = append(resp, w[:]...)
		}
		reqID++
		script = appendRequest(script, OpPredictBatch, reqID, id, batchBody(seqs[id]+1, batch))
		seqs[id] += uint64(n)
		want[reqID] = resp
	}

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	sent := make(chan error, 1)
	go func() {
		_, err := conn.Write(script)
		sent <- err
	}()
	br := bufio.NewReader(conn)
	var buf []byte
	for n := uint32(1); n <= reqID; n++ {
		payload, err := readFrame(br, buf)
		if err != nil {
			t.Fatalf("response %d of %d: %v", n, reqID, err)
		}
		buf = payload
		if got := le.Uint32(payload[1:]); got != n {
			t.Fatalf("response %d carries request ID %d: responses must leave in request order", n, got)
		}
		if payload[5] != StatusOK {
			t.Fatalf("request %d: status %d", n, payload[5])
		}
		if body, ok := want[n]; ok && !bytes.Equal(payload[respHeaderBytes:], body) {
			t.Fatalf("request %d: response differs from the in-process replay", n)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// BenchmarkServeLoopback times one Client round trip against an
// in-process server over loopback: a PredictBatch or UpdateBatch of 16
// or 256 traces on one warmed session. Allocations count client and
// server together, and steady state must make none: CI fails any
// sub-benchmark above 0 allocs/op.
func BenchmarkServeLoopback(b *testing.B) {
	traces := streamTraces(b)
	srv, err := NewServer(Config{Addr: "127.0.0.1:0", Shards: 1, Predictor: headlineConfig()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	session := uint64(0)
	for _, op := range []string{"predict", "update"} {
		for _, batch := range []int{16, 256} {
			session++
			b.Run(fmt.Sprintf("%s/batch%d", op, batch), func(b *testing.B) {
				cl, err := Dial(srv.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				if _, _, err := cl.Open(session); err != nil {
					b.Fatal(err)
				}
				preds := make([]predictor.Prediction, batch)
				off := 0
				send := func() {
					if off+batch > len(traces) {
						off = 0
					}
					var err error
					if op == "predict" {
						_, _, _, err = cl.PredictBatch(session, traces[off:off+batch], preds)
					} else {
						_, _, _, err = cl.UpdateBatch(session, traces[off:off+batch])
					}
					if err != nil {
						b.Fatal(err)
					}
					off += batch
				}
				send() // grow both sides' buffers before timing
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					send()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/trace")
			})
		}
	}
}
