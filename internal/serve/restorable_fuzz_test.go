package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"pathtrace/internal/faults"
	"pathtrace/internal/metrics"
	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
	"pathtrace/internal/trace"
)

// wireFrames joins request payloads into the byte stream a connection
// carries: each one length-prefixed.
func wireFrames(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = le.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b
}

// batchPayload is a batch request payload for op carrying traces from
// sequence seq, each encoded by putTrace.
func batchPayload(op uint8, seq uint64, traces []trace.Trace) []byte {
	b := batchFrame(op, seq, uint32(len(traces)), 0)
	for i := range traces {
		putTrace(b[reqHeaderBytes+updateHeaderBytes+i*wireTraceBytes:], &traces[i])
	}
	return b
}

// FuzzServedSessionRestorable holds the server to one promise: no
// request it accepts leaves a session it cannot save and restore. The
// input is a connection's byte stream, length-prefixed frames as on the
// wire; every frame parseRequest accepts as a batch op runs through
// shard.process against one session, whatever session it names, on
// every registered backend, with and without a fault plan. Then the
// session's snapshot must restore, and the restored session must save
// byte for byte the same frame.
func FuzzServedSessionRestorable(f *testing.F) {
	configs := map[string]predictor.Config{ // small geometries keep each round trip cheap
		"basic":       {Backend: "basic", Depth: 3, IndexBits: 8},
		"costreduced": {Backend: "costreduced", Depth: 7, IndexBits: 8, SecondaryBits: 6, UseRHS: true},
		"hybrid":      {Backend: "hybrid", Depth: 7, IndexBits: 8, SecondaryBits: 6, UseRHS: true},
		"tage":        {Backend: "tage", Depth: 7, IndexBits: 8},
		"unbounded":   {Backend: "unbounded", Depth: 7, Hybrid: true, UseRHS: true},
	}
	fcfg := faultsConfigForTest()
	type target struct {
		b   predictor.Backend
		cfg predictor.Config
		f   *faults.Config
	}
	var targets []target
	for _, b := range predictor.Backends() {
		cfg, ok := configs[b.Name]
		if !ok {
			f.Fatalf("no fuzz config for backend %q — add one", b.Name)
		}
		targets = append(targets, target{b, cfg, nil}, target{b, cfg, &fcfg})
	}

	traces := streamTraces(f)[:256]
	f.Add(wireFrames(
		batchPayload(OpUpdateBatch, 1, traces[:128]),
		batchPayload(OpPredictBatch, 129, traces[128:]),
	))
	// A resend of an acked range, a gap, and an unsequenced batch.
	f.Add(wireFrames(
		batchPayload(OpUpdateBatch, 1, traces[:64]),
		batchPayload(OpUpdateBatch, 33, traces[32:96]),
		batchPayload(OpUpdateBatch, 500, traces[:8]),
		batchPayload(OpPredictBatch, 0, traces[96:160]),
	))
	// A trace whose hash no identifier hashes to.
	bad := append([]trace.Trace(nil), traces[:16]...)
	bad[len(bad)-1].Hash = 0xffff
	f.Add(wireFrames(batchPayload(OpUpdateBatch, 1, bad)))
	// Traces with every wire bit set: the widest identifier and call
	// count, ending in a return.
	ones := batchFrame(OpUpdateBatch, 1, 16, 0)
	for i := reqHeaderBytes + updateHeaderBytes; i < len(ones); i++ {
		ones[i] = 0xff
	}
	f.Add(wireFrames(batchPayload(OpUpdateBatch, 1, traces[:32]), ones))

	f.Fuzz(func(t *testing.T, data []byte) {
		var reqs []request
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			payload, err := readFrame(br, nil)
			if err != nil {
				break
			}
			var req request
			if parseRequest(&req, payload) != nil || req.op != OpUpdateBatch && req.op != OpPredictBatch {
				continue
			}
			reqs = append(reqs, req)
		}
		for _, tg := range targets {
			if err := restorableAfter(reqs, tg.b, tg.cfg, tg.f); err != nil {
				t.Errorf("%s (faults %v): %v", tg.b.Name, tg.f != nil, err)
			}
		}
	})
}

// restorableAfter runs reqs against a fresh session of backend b on
// its own shard, then saves the session, restores the frame and saves
// again. It reports the first step that fails, or two saves that
// differ.
func restorableAfter(reqs []request, b predictor.Backend, cfg predictor.Config, fcfg *faults.Config) error {
	const id = 1
	sh := newShard(0, b, cfg, fcfg, nil, 1, newShardMetrics(metrics.NewRegistry(), 0, b.Name, nil))
	if resp := sh.open(id); resp.err != nil {
		return fmt.Errorf("open: %w", resp.err)
	}
	for i := range reqs {
		reqs[i].session = id
		sh.process(&reqs[i])
	}
	save := func() ([]byte, error) {
		req := request{op: OpSnapshot, session: id}
		if resp := sh.process(&req); resp.err != nil {
			return nil, fmt.Errorf("save: %w", resp.err)
		}
		return bytes.Clone(req.resp[respHeaderBytes:]), nil
	}
	frame, err := save()
	if err != nil {
		return err
	}
	sess, err := snapshot.Decode(frame)
	if err != nil {
		return fmt.Errorf("saved frame does not decode: %w", err)
	}
	if err := sh.installSnapshot(sess); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	again, err := save()
	if err != nil {
		return fmt.Errorf("after restore: %w", err)
	}
	if !bytes.Equal(again, frame) {
		return fmt.Errorf("restored session saves %d bytes differing from the %d it was restored from", len(again), len(frame))
	}
	return nil
}
