package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"pathtrace/internal/snapshot"
	"pathtrace/internal/trace"
)

// seenReq is one request a scriptServer answered.
type seenReq struct {
	op      uint8
	conn    int    // 1-based accept order of the connection it arrived on
	blob    []byte // OpRestore: the snapshot frame
	seq     uint64 // OpUpdateBatch: the start sequence
	tracked bool   // OpUpdateBatch: answered with a snapshot
	fail    bool   // answered with the scripted status
}

// snapFault is a scripted failure of one answer carrying a snapshot: an
// OpSnapshot answer or a tracked batch's ack.
type snapFault uint8

const (
	snapOK      snapFault = iota
	snapTear              // send half the response, then stall until the client hangs up
	snapDrop              // send half the response, then close the connection
	snapUnknown           // answer StatusUnknownSession
)

// scriptSnap is the n'th snapshot body a scriptServer serves: a frame
// that decodes, around a state section no backend would restore. The
// lengths cycle, so a client refreshing one buffer in place sees its
// frame both grow and shrink.
func scriptSnap(n int) []byte {
	state := append(fmt.Appendf(nil, "snap-%d|", n), bytes.Repeat([]byte{byte(n)}, 4096*(n%3))...)
	frame, err := snapshot.AppendFrame(nil, 5, 0, "hybrid", func(b []byte) ([]byte, error) { return append(b, state...), nil })
	if err != nil {
		panic(err)
	}
	return frame
}

// scriptServer is a fake ntpd that answers every op with StatusOK and
// well-formed bodies, except that the first request carrying the op
// failNext named is answered with its status, and the n'th request due
// a snapshot (an OpSnapshot or a tracked batch, counting from 1) fails
// as snapFaults[n] says. The n'th snapshot served is scriptSnap(n),
// after generation n in a tracked batch's ack.
type scriptServer struct {
	ln net.Listener

	mu         sync.Mutex
	failOp     uint8
	failStatus uint8
	snapFaults map[int]snapFault
	fired      bool
	conns      int
	snaps      int
	seen       []seenReq
}

func newScriptServer(t *testing.T) *scriptServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := &scriptServer{ln: ln}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			ss.mu.Lock()
			ss.conns++
			id := ss.conns
			ss.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				ss.serve(conn, id)
			}()
		}
	}()
	return ss
}

// serve answers one connection's requests until it closes.
func (ss *scriptServer) serve(conn net.Conn, id int) {
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	var buf []byte
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			return
		}
		buf = payload
		var req request
		if err := parseRequest(&req, payload); err != nil {
			return
		}
		ss.mu.Lock()
		fail := req.op == ss.failOp && !ss.fired
		ss.fired = ss.fired || fail
		status := uint8(StatusOK)
		if fail {
			status = ss.failStatus
		}
		fault := snapOK
		if req.op == OpSnapshot || req.tracked {
			ss.snaps++
			if fault = ss.snapFaults[ss.snaps]; fault == snapUnknown {
				status = StatusUnknownSession
			}
		}
		resp := appendResponseHeader(nil, req.op, req.reqID, status)
		switch {
		case status == StatusThrottled:
			resp = le.AppendUint32(resp, 1) // retry after 1 ms
		case status != StatusOK:
		case req.op == OpOpen:
			resp = append(resp, make([]byte, openRespBytes)...)
		case req.op == OpRestore:
			resp = append(resp, make([]byte, 4)...)
		case req.op == OpSnapshot:
			resp = append(resp, scriptSnap(ss.snaps)...)
		case req.op == OpUpdateBatch:
			resp = le.AppendUint32(resp, 0)
			resp = le.AppendUint32(resp, uint32(len(req.traces)))
			resp = le.AppendUint32(resp, 0)
			if req.tracked {
				resp = le.AppendUint64(resp, uint64(ss.snaps))
				resp = append(resp, scriptSnap(ss.snaps)...)
			}
		case req.op == OpStats:
			resp = append(resp, make([]byte, 4+statsBytes)...)
		}
		ss.seen = append(ss.seen, seenReq{op: req.op, conn: id, blob: bytes.Clone(req.blob), seq: req.seq, tracked: req.tracked, fail: fail})
		ss.mu.Unlock()
		if fault == snapTear || fault == snapDrop {
			bw.Write(le.AppendUint32(nil, uint32(len(resp))))
			bw.Write(resp[:len(resp)/2])
			bw.Flush()
			if fault == snapTear {
				io.Copy(io.Discard, conn)
			}
			return
		}
		if writeFrame(bw, resp) != nil || bw.Flush() != nil {
			return
		}
	}
}

// failNext scripts status as the answer to the next request carrying
// op.
func (ss *scriptServer) failNext(op, status uint8) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.failOp, ss.failStatus = op, status
}

// log returns the requests answered so far and the connections
// accepted.
func (ss *scriptServer) log() ([]seenReq, int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]seenReq(nil), ss.seen...), ss.conns
}

// TestRetryClientPolicy pins the one retry policy every RetryClient
// operation shares, against a fake server that rejects the op under
// test once with a scripted status: Overloaded and Throttled resend
// once on the same connection, Draining resends once on a redialed
// connection, UnknownSession re-establishes (Restore of the last acked
// snapshot, or Open when there is none) before the resend, SeqGap
// re-establishes like UnknownSession when a snapshot is held and
// otherwise fails like BadRequest, and BadRequest fails at once without
// a resend or a redial. The status is scripted only after prep, so in
// the restore cases the tracked update of no traces that Open sends
// for the session's first frame is answered cleanly.
func TestRetryClientPolicy(t *testing.T) {
	const session = 5
	ops := []struct {
		name string
		op   uint8
		// prep runs before the op under test; call runs it.
		prep func(*RetryClient) error
		call func(*RetryClient) error
		// restore: the session has an acked snapshot when call runs.
		restore bool
	}{
		{"Open", OpOpen,
			func(*RetryClient) error { return nil },
			func(rc *RetryClient) error { _, _, err := rc.Open(session); return err },
			false},
		{"UpdateBatch", OpUpdateBatch,
			func(rc *RetryClient) error { _, _, err := rc.Open(session); return err },
			func(rc *RetryClient) error {
				_, _, _, err := rc.UpdateBatch(session, make([]trace.Trace, 3))
				return err
			},
			true},
		{"Stats", OpStats,
			func(rc *RetryClient) error { _, _, err := rc.Open(session); return err },
			func(rc *RetryClient) error { _, err := rc.Stats(session); return err },
			true},
	}
	statuses := []struct {
		name   string
		status uint8
	}{
		{"Overloaded", StatusOverloaded},
		{"Throttled", StatusThrottled},
		{"Draining", StatusDraining},
		{"UnknownSession", StatusUnknownSession},
		{"BadRequest", StatusBadRequest},
		{"SeqGap", StatusSeqGap},
	}
	for _, o := range ops {
		for _, st := range statuses {
			t.Run(o.name+"/"+st.name, func(t *testing.T) {
				ss := newScriptServer(t)
				snapEvery := 0
				if o.restore {
					snapEvery = 1
				}
				rc, err := NewRetryClient(RetryConfig{
					Addrs:         []string{ss.ln.Addr().String()},
					BaseBackoff:   time.Millisecond,
					MaxBackoff:    2 * time.Millisecond,
					MaxElapsed:    5 * time.Second,
					SnapshotEvery: snapEvery,
					Seed:          1,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer rc.Close()
				if err := o.prep(rc); err != nil {
					t.Fatalf("prep: %v", err)
				}
				prepped, _ := ss.log()
				var lastSnap []byte
				snaps := 0
				for _, r := range prepped {
					if r.op == OpSnapshot || r.tracked {
						snaps++
						lastSnap = scriptSnap(snaps)
					}
				}
				ss.failNext(o.op, st.status)
				err = o.call(rc)
				seen, conns := ss.log()

				failed := -1
				for i, r := range seen {
					if r.fail {
						failed = i
					}
				}
				if failed < 0 {
					t.Fatalf("scripted status never sent; requests %+v", seen)
				}
				after := seen[failed+1:]

				// A gap is recoverable only from a held frame, which
				// only the restore cases hold.
				recoverable := st.status == StatusUnknownSession || st.status == StatusSeqGap && o.restore
				if !recoverable && (st.status == StatusBadRequest || st.status == StatusSeqGap) {
					if want := statusErr(st.status); !errors.Is(err, want) {
						t.Fatalf("err = %v, want %v", err, want)
					}
					if len(after) != 0 {
						t.Errorf("%d requests after the rejection, want none: %+v", len(after), after)
					}
					if conns != 1 {
						t.Errorf("%d connections, want 1 (no redial)", conns)
					}
					return
				}
				if err != nil {
					t.Fatalf("err = %v, want success after one resend", err)
				}
				if recoverable {
					want, blob := uint8(OpOpen), []byte(nil)
					if o.restore {
						want, blob = OpRestore, lastSnap
					}
					if len(after) == 0 || after[0].op != want || !bytes.Equal(after[0].blob, blob) {
						t.Fatalf("after UnknownSession: requests %+v, want op 0x%02x with snapshot %q first", after, want, blob)
					}
					after = after[1:]
				}
				if len(after) == 0 || after[0].op != o.op {
					t.Fatalf("requests after the rejection %+v, want the resend first", after)
				}
				resends := 0
				for _, r := range after {
					if r.op == o.op {
						resends++
					}
				}
				if resends != 1 {
					t.Errorf("%d resends of op 0x%02x, want 1", resends, o.op)
				}
				wantConns := 1
				if st.status == StatusDraining {
					wantConns = 2
				}
				if conns != wantConns || after[0].conn != wantConns {
					t.Errorf("%d connections, resend on connection %d; want both %d", conns, after[0].conn, wantConns)
				}
			})
		}
	}
}

// TestRetryClientSnapshotEveryZeroOrOne: a RetryClient holds a frame
// of every session or of none, so NewRetryClient refuses any other
// SnapshotEvery.
func TestRetryClientSnapshotEveryZeroOrOne(t *testing.T) {
	for _, every := range []int{-1, 0, 1, 2, 8} {
		_, err := NewRetryClient(RetryConfig{Addrs: []string{"127.0.0.1:1"}, SnapshotEvery: every})
		if ok := every == 0 || every == 1; (err == nil) != ok {
			t.Errorf("SnapshotEvery %d: err = %v, want accepted %v", every, err, ok)
		}
	}
}

// TestRetryClientSnapshotFailureKeepsAckedFrame: RetryClient refreshes
// a session's frame in place from each tracked ack, yet an ack that
// fails — torn mid-body and stalled, the connection dropped mid-body,
// or ErrUnknownSession — leaves the last acked frame byte-identical.
// The first two redial and resend the batch over its original sequence
// range (the server now answering may not hold it); answering that
// resend ErrUnknownSession makes the client restore from the frame it
// holds, so the server sees exactly the last acked frame, then the
// batch resent once more, and the stream carries on from there.
func TestRetryClientSnapshotFailureKeepsAckedFrame(t *testing.T) {
	const session = 5
	for _, tc := range []struct {
		name   string
		faults []snapFault
		seqs   []uint64 // batch start sequences the server sees
	}{
		{"tear", []snapFault{snapTear, snapUnknown}, []uint64{0, 1, 4, 7, 7, 7, 10}},
		{"drop", []snapFault{snapDrop, snapUnknown}, []uint64{0, 1, 4, 7, 7, 7, 10}},
		{"unknown", []snapFault{snapUnknown}, []uint64{0, 1, 4, 7, 7, 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ss := newScriptServer(t)
			// Snapshots 1-3 (Open's tracked batch of no traces, at
			// sequence 0, then two tracked batches) are acked; the faults
			// hit the third batch's ack and its resends.
			ss.mu.Lock()
			ss.snapFaults = map[int]snapFault{}
			for i, f := range tc.faults {
				ss.snapFaults[4+i] = f
			}
			ss.mu.Unlock()
			rc, err := NewRetryClient(RetryConfig{
				Addrs:         []string{ss.ln.Addr().String()},
				OpTimeout:     200 * time.Millisecond,
				BaseBackoff:   time.Millisecond,
				MaxBackoff:    2 * time.Millisecond,
				MaxElapsed:    5 * time.Second,
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
			batch := make([]trace.Trace, 3)
			update := func() {
				t.Helper()
				if _, _, _, err := rc.UpdateBatch(session, batch); err != nil {
					t.Fatal(err)
				}
			}
			update()
			update()
			acked := append([]byte(nil), rc.sessions[session].snap.Frame()...)
			if !bytes.Equal(acked, scriptSnap(3)) {
				t.Fatalf("acked frame %.8q, want snapshot 3", acked)
			}
			update() // traces 7-9: its snapshot fails
			update() // traces 10-12

			seen, _ := ss.log()
			var restores [][]byte
			var seqs []uint64
			for _, r := range seen {
				switch r.op {
				case OpRestore:
					restores = append(restores, r.blob)
				case OpUpdateBatch:
					seqs = append(seqs, r.seq)
				}
			}
			if len(restores) != 1 || !bytes.Equal(restores[0], acked) {
				t.Fatalf("restored %d frames, want exactly the last acked frame once", len(restores))
			}
			if fmt.Sprint(seqs) != fmt.Sprint(tc.seqs) {
				t.Errorf("batch start sequences %v, want %v (the failed batch resent over its range)", seqs, tc.seqs)
			}
			ss.mu.Lock()
			last := ss.snaps
			ss.mu.Unlock()
			if got := rc.sessions[session].snap.Frame(); !bytes.Equal(got, scriptSnap(last)) {
				t.Errorf("held frame %.8q, want the newest one served (snapshot %d)", got, last)
			}
		})
	}
}
