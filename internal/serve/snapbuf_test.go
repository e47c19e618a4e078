package serve

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
	"pathtrace/internal/trace"
)

// This file covers the snapshot encode path: the shard writes each
// frame once, straight into the connection's reused response buffer.
// A served frame must equal snapshot.Encode of the in-process state
// byte for byte, a reused buffer must never be overwritten before its
// frame is sent, and a snapshot-per-ack client must allocate well
// under one frame per batch.

// snapshotConfigs maps each backend to a small serving config.
var snapshotConfigs = map[string]predictor.Config{
	"basic":       {Backend: "basic", Depth: 5, IndexBits: 12},
	"hybrid":      {Backend: "hybrid", Depth: 7, IndexBits: 12, UseRHS: true},
	"costreduced": {Backend: "costreduced", Depth: 7, IndexBits: 12, UseRHS: true},
	"tage":        {Backend: "tage", Depth: 7, IndexBits: 12},
	"unbounded":   {Backend: "unbounded", Depth: 7, Hybrid: true, UseRHS: true},
}

// refFrame is the frame snapshot.Encode makes of an in-process
// predictor: what OpSnapshot must return for a session in that state.
func refFrame(t testing.TB, b predictor.Backend, id, lastSeq uint64, p predictor.NextTracePredictor) []byte {
	t.Helper()
	state, err := b.Save(p)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	frame, err := snapshot.Encode(&snapshot.Session{ID: id, LastSeq: lastSeq, Backend: b.Name, State: state})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return frame
}

// TestServedSnapshotEqualsEncode: for every backend, the
// frame a live server returns for OpSnapshot — fresh, then after each
// batch — is byte for byte the frame snapshot.Encode makes of an
// in-process predictor fed the same traces.
func TestServedSnapshotEqualsEncode(t *testing.T) {
	s := captureTestStream(t)
	for _, b := range predictor.Backends() {
		cfg, ok := snapshotConfigs[b.Name]
		if !ok {
			t.Errorf("no config for backend %q — add one", b.Name)
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			const session = 9
			srv := newTestServer(t, Config{Shards: 2, Predictor: cfg})
			cl := dialT(t, srv)
			if _, _, err := cl.Open(session); err != nil {
				t.Fatal(err)
			}
			ref := predictor.MustNew(cfg)
			cur := s.Cursor()
			batch := make([]trace.Trace, 128)
			var seq uint64
			for round := 0; round < 8; round++ {
				frame, err := cl.Snapshot(session)
				if err != nil {
					t.Fatalf("round %d: Snapshot: %v", round, err)
				}
				if want := refFrame(t, b, session, seq, ref); !bytes.Equal(frame, want) {
					t.Fatalf("round %d: served frame (%d bytes) differs from snapshot.Encode (%d bytes)", round, len(frame), len(want))
				}
				n := cur.NextBatch(batch)
				if _, _, _, err := cl.UpdateBatch(session, batch[:n]); err != nil {
					t.Fatal(err)
				}
				for i := range batch[:n] {
					ref.Predict()
					ref.Update(&batch[i])
				}
				seq += uint64(n)
			}
		})
	}
}

// TestPipelinedSnapshotsNeverOverwritten: one connection pipelines
// OpSnapshot requests for two sessions on different shards, back to
// back and interleaved with UpdateBatch, without waiting for a single
// answer. Every frame must equal its in-process reference, which
// proves a reused response buffer is never rewritten before the frame
// in it has been written.
func TestPipelinedSnapshotsNeverOverwritten(t *testing.T) {
	s := captureTestStream(t)
	cfg := snapshotConfigs["hybrid"]
	b, _ := predictor.BackendByName(cfg.Backend)
	srv := newTestServer(t, Config{Shards: 2, Predictor: cfg})
	ids := []uint64{1}
	for id := uint64(2); len(ids) < 2; id++ {
		if srv.shardFor(id) != srv.shardFor(ids[0]) {
			ids = append(ids, id)
		}
	}

	// The whole request script, and the frame each snapshot must
	// return, keyed by request ID.
	var script []byte
	var reqID uint32
	want := map[uint32][]byte{}
	add := func(op uint8, session uint64, body []byte) uint32 {
		reqID++
		payload := []byte{op}
		payload = le.AppendUint32(payload, reqID)
		payload = le.AppendUint64(payload, session)
		payload = append(payload, body...)
		script = le.AppendUint32(script, uint32(len(payload)))
		script = append(script, payload...)
		return reqID
	}
	refs := map[uint64]predictor.NextTracePredictor{}
	seqs := map[uint64]uint64{}
	for _, id := range ids {
		add(OpOpen, id, nil)
		refs[id] = predictor.MustNew(cfg)
	}
	cur := s.Cursor()
	batch := make([]trace.Trace, 64)
	for round := 0; round < 25; round++ {
		for _, id := range ids {
			if n := cur.NextBatch(batch); n < len(batch) {
				t.Fatal("test stream too short")
			}
			body := le.AppendUint64(nil, seqs[id]+1)
			body = le.AppendUint32(body, uint32(len(batch)))
			for i := range batch {
				var w [wireTraceBytes]byte
				putTrace(w[:], &batch[i])
				body = append(body, w[:]...)
				refs[id].Predict()
				refs[id].Update(&batch[i])
			}
			seqs[id] += uint64(len(batch))
			add(OpUpdateBatch, id, body)
			frame := refFrame(t, b, id, seqs[id], refs[id])
			// Back to back: the second is encoded into the buffer the first was sent from.
			want[add(OpSnapshot, id, nil)] = frame
			want[add(OpSnapshot, id, nil)] = frame
		}
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
	for n := uint32(0); n < reqID; n++ {
		payload, err := readFrame(br, buf)
		if err != nil {
			t.Fatalf("response %d of %d: %v", n+1, reqID, err)
		}
		buf = payload
		id := le.Uint32(payload[1:])
		if payload[5] != StatusOK {
			t.Fatalf("request %d (op 0x%02x): status %d", id, payload[0]&^respBit, payload[5])
		}
		if frame, ok := want[id]; ok {
			if !bytes.Equal(payload[respHeaderBytes:], frame) {
				t.Fatalf("snapshot request %d: frame differs from its in-process reference", id)
			}
			delete(want, id)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 {
		t.Fatalf("%d snapshots never answered", len(want))
	}
}

// faultProxy forwards connections to a real server and fails the n'th
// response carrying a snapshot (an OpSnapshot answer or a tracked
// batch's ack, counting from 1) as faults[n] says.
type faultProxy struct {
	ln     net.Listener
	mu     sync.Mutex
	faults map[int]snapFault
	snaps  int
}

func newFaultProxy(t *testing.T, target string, faults map[int]snapFault) *faultProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	px := &faultProxy{ln: ln, faults: faults}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			cc, err := ln.Accept()
			if err != nil {
				return
			}
			sc, err := net.Dial("tcp", target)
			if err != nil {
				cc.Close()
				continue
			}
			wg.Add(2)
			go func() {
				defer wg.Done()
				io.Copy(sc, cc)
				sc.Close()
			}()
			go func() {
				defer wg.Done()
				px.forward(cc, sc)
				cc.Close()
				sc.Close()
			}()
		}
	}()
	return px
}

// forward relays response frames from sc to cc, applying the scripted
// fault to responses that carry a snapshot.
func (px *faultProxy) forward(cc, sc net.Conn) {
	br, bw := bufio.NewReader(sc), bufio.NewWriter(cc)
	var buf []byte
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			return
		}
		buf = payload
		fault := snapOK
		if carriesSnapshot(payload) {
			px.mu.Lock()
			px.snaps++
			fault = px.faults[px.snaps]
			px.mu.Unlock()
		}
		switch fault {
		case snapOK:
			err = writeFrame(bw, payload)
		case snapUnknown:
			err = writeFrame(bw, appendResponseHeader(nil, payload[0]&^respBit, le.Uint32(payload[1:]), StatusUnknownSession))
		case snapTear, snapDrop:
			cc.Write(append(le.AppendUint32(nil, uint32(len(payload))), payload[:len(payload)/2]...))
			if fault == snapTear {
				io.Copy(io.Discard, br) // stall until the client hangs up
			}
			return
		}
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			return
		}
	}
}

// carriesSnapshot reports whether a response payload carries a
// snapshot: an OK OpSnapshot answer, or an OK batch ack longer than its
// counts (a tracked one).
func carriesSnapshot(payload []byte) bool {
	switch {
	case payload[respHeaderBytes-1] != StatusOK:
		return false
	case payload[0] == OpSnapshot|respBit:
		return true
	}
	return payload[0] == OpUpdateBatch|respBit && len(payload) > respHeaderBytes+batchRespBytes
}

// TestRetryClientSnapshotFaultsResumeBitIdentical: a RetryClient with
// SnapshotEvery 1 streams through a proxy that tears, drops or answers
// ErrUnknownSession to every sixth snapshot of a real server, most of
// them tracked acks. A torn or dropped ack redials and resends the
// batch; ErrUnknownSession restores the last acked frame the client
// refreshes in place and resends the batch. The session must end bit-identical to an
// in-process replay, holding the frame of its final state.
func TestRetryClientSnapshotFaultsResumeBitIdentical(t *testing.T) {
	s := captureTestStream(t)
	cfg := snapshotConfigs["hybrid"]
	b, _ := predictor.BackendByName(cfg.Backend)
	for _, tc := range []struct {
		name  string
		fault snapFault
	}{{"tear", snapTear}, {"drop", snapDrop}, {"unknown", snapUnknown}} {
		t.Run(tc.name, func(t *testing.T) {
			const session = 3
			srv := newTestServer(t, Config{Shards: 2, Predictor: cfg})
			faults := map[int]snapFault{}
			for n := 3; n <= 20; n += 6 {
				faults[n] = tc.fault
			}
			px := newFaultProxy(t, srv.Addr().String(), faults)
			rc, err := NewRetryClient(RetryConfig{
				Addrs:         []string{px.ln.Addr().String()},
				OpTimeout:     200 * time.Millisecond,
				BaseBackoff:   time.Millisecond,
				MaxBackoff:    2 * time.Millisecond,
				MaxElapsed:    10 * time.Second,
				SnapshotEvery: 1,
				Seed:          1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			if _, _, err := rc.Open(session); err != nil {
				t.Fatal(err)
			}
			ref := predictor.MustNew(cfg)
			cur := s.Cursor()
			batch := make([]trace.Trace, 128)
			var seq uint64
			for i := 0; i < 20; i++ {
				n := cur.NextBatch(batch)
				if _, _, _, err := rc.UpdateBatch(session, batch[:n]); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				for j := range batch[:n] {
					ref.Predict()
					ref.Update(&batch[j])
				}
				seq += uint64(n)
			}
			px.mu.Lock()
			served := px.snaps
			px.mu.Unlock()
			if served < 20+len(faults) {
				t.Fatalf("%d snapshots through the proxy; the faults never fired", served)
			}
			st, err := rc.Stats(session)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Session.Equal(ref.Stats()) {
				t.Errorf("session stats %+v, want %+v", st.Session, ref.Stats())
			}
			if !bytes.Equal(rc.sessions[session].snap.Frame(), refFrame(t, b, session, seq, ref)) {
				t.Error("held frame is not the final state's frame")
			}
		})
	}
}

// BenchmarkRetrySnapshotEvery1 is the durable workload in miniature:
// a RetryClient with SnapshotEvery 1 drives one warmed IndexBits-16
// hybrid+RHS session on a loopback server at batch 256, so each op is
// one tracked UpdateBatch round trip whose ack carries the snapshot.
// B/op and allocs/op count client and server together. With each
// answer written once into the connection's reused buffer and merged in
// place on the client, an ack allocates nothing; CI fails the run at
// any allocs/op or at half a frame of B/op, so a returning per-snapshot
// copy names itself. After the first tracked ack every snapshot is a
// delta of the batch's entries: CI fails the run when wire-bytes/op
// reaches 1/16 of frame-bytes, so a full frame per ack names itself
// too. frames/op counts the request frames the server read per op; CI
// fails the run unless it is exactly 1, so a snapshot that takes a
// round trip of its own names itself as well.
func BenchmarkRetrySnapshotEvery1(b *testing.B) {
	// Random traces fill the 64K-entry tables in a few passes, so the
	// frame is full size, about what a long real stream reaches.
	rng := rand.New(rand.NewSource(1))
	pool := make([]trace.Trace, 1<<16)
	for i := range pool {
		id := trace.MakeID(0x1000+uint32(rng.Intn(1<<14))*4, uint8(rng.Intn(64)))
		pool[i] = trace.Trace{ID: id, Hash: id.Hash(), StartPC: id.StartPC(),
			Calls: rng.Intn(3), EndsInRet: rng.Intn(4) == 0}
	}
	srv, err := NewServer(Config{Addr: "127.0.0.1:0", Shards: 2, Predictor: headlineConfig()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const session, batch = 1, 256
	next := 0
	nextBatch := func() []trace.Trace {
		if next+batch > len(pool) {
			next = 0
		}
		next += batch
		return pool[next-batch : next]
	}

	// Warm through a plain client; RetryClient.Open then adopts the
	// session's sequence and takes its full frame, tracked.
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := cl.Open(session); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4*len(pool)/batch; i++ {
		if _, _, _, err := cl.UpdateBatch(session, nextBatch()); err != nil {
			b.Fatal(err)
		}
	}
	cl.Close()
	rc, err := NewRetryClient(RetryConfig{Addrs: []string{srv.Addr().String()}, SnapshotEvery: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rc.Close()
	if _, _, err := rc.Open(session); err != nil {
		b.Fatal(err)
	}
	send := func() {
		if _, _, _, err := rc.UpdateBatch(session, nextBatch()); err != nil {
			b.Fatal(err)
		}
	}
	// Open took the one full-size frame on each side. Two deltas before
	// timing: the first sizes the client's merge plan.
	send()
	send()
	wire0, frames0 := snapshotWireBytes(srv), srv.metrics.requests.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	b.ReportMetric(float64(rc.sessions[session].snap.Len()), "frame-bytes")
	b.ReportMetric(float64(snapshotWireBytes(srv)-wire0)/float64(b.N), "wire-bytes/op")
	b.ReportMetric(float64(srv.metrics.requests.Load()-frames0)/float64(b.N), "frames/op")
}

// snapshotWireBytes is every snapshot byte srv has written: the frames
// and deltas, each with the generation token a tracked ack carries
// before it. The ack's length prefix, header and counts belong to the
// batch, which is answered either way. (An OpSnapshot answer carries no
// token and is overcounted by one.)
func snapshotWireBytes(srv *Server) uint64 {
	var n uint64
	for _, sh := range srv.shards {
		m := sh.metrics
		n += m.fullSnapBytes.Load() + m.deltaSnapBytes.Load() + m.snapshots.Load()*snapGenBytes
	}
	return n
}
