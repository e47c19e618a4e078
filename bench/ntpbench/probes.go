package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"pathtrace/internal/experiments"
	"pathtrace/internal/predictor"
	"pathtrace/internal/snapshot"
	"pathtrace/internal/stream"
	"pathtrace/internal/trace"
)

// runProbes times each layer's public entry points directly, at the
// workload's shape, and fills the per-layer metrics the workload does
// not exercise itself (on repro: the whole serving layer, from a short
// bulk run). Probes run after the workload, so they never disturb it.
func runProbes(name string, rc runConfig, o *outcome) error {
	log := o.tr.log()
	defer log.flush()
	sc := rc.sc
	spec, serving := servingSpecs[name]
	probe := func(what string, fn func() error) error {
		h := log.begin("probe."+what, 0, 0)
		defer log.end(h)
		if err := fn(); err != nil {
			return fmt.Errorf("probe %s: %w", what, err)
		}
		return nil
	}

	// The kernel at the workload's shape: its session count and batch
	// size for serving, the experiments' scalar round (a batch of one)
	// on one predictor per benchmark for repro.
	n, batch := len(o.streams), 1
	if serving {
		n, batch = spec.sessionCount(sc), spec.batch
	}
	err := probe("predictor_batch", func() error {
		ns, allocs, ev, err := probeBatch(o.streams, n, batch, spec.op == "predict_batch", sc.probeTime)
		o.layer["predictor.batch_ns_per_trace"] = ns
		o.layer["predictor.allocs_per_trace"] = allocs
		if !serving {
			o.layer["predictor.cold_frac"] = ev.cold / ev.rounds
			o.layer["predictor.secondary_frac"] = ev.secondary / ev.rounds
			o.layer["predictor.replace_frac"] = ev.replaced / ev.rounds
		}
		return err
	})
	if err == nil {
		err = probe("unbounded", func() (err error) {
			o.layer["predictor.unbounded_ns_per_trace"], err = probeUnbounded(o.streams[0], sc.probeTime)
			return err
		})
	}
	if err == nil {
		err = probe("snapshot", func() error {
			bytes, enc, dec, err := probeSnapshot(o.streams[0])
			o.layer["snapshot.frame_bytes"], o.layer["snapshot.encode_us"], o.layer["snapshot.decode_us"] = bytes, enc, dec
			return err
		})
	}
	if err == nil {
		err = probe("stream_replay", func() error {
			o.layer["stream.replay_ns_per_trace"] = probeReplay(o.streams, sc.probeTime)
			return nil
		})
	}
	if err == nil && !serving {
		err = probe("stream_next_batch", func() error {
			o.layer["stream.next_batch_ns_per_trace"] = probeNextBatch(o.streams, 64, sc.probeTime)
			return nil
		})
	}
	if err == nil && !serving {
		err = probe("serve", func() error {
			mini := rc
			mini.sc.warmup, mini.sc.setupReps = sc.probeTime, 1
			mini.measure, mini.log = 5*sc.probeTime, io.Discard
			m, err := runServing("bulk", mini)
			if err != nil {
				return err
			}
			if len(m.mismatches) > 0 {
				return fmt.Errorf("serving probe: %s", m.mismatches[0])
			}
			for k, v := range m.layer {
				if strings.HasPrefix(k, "serve.") {
					o.layer[k] = v
				}
			}
			return nil
		})
	}
	if err == nil {
		// Serving runs (and toy sweeps) time the exhibits they did not
		// run at the scale's probe length, cache warm.
		var missing []string
		for _, id := range paperExhibits {
			if _, ok := o.layer["experiments."+id+"_s"]; !ok {
				missing = append(missing, id)
			}
		}
		if len(missing) > 0 {
			err = probe("experiments", func() error {
				opt := experiments.Options{Limit: sc.probeLimit, Streams: stream.NewCache()}
				sweep(missing, opt, nil, 0)
				took, _, failed := sweep(missing, opt, nil, 0)
				if len(failed) > 0 {
					return failed[0]
				}
				for id, t := range took {
					o.layer["experiments."+id+"_s"] = t.wall.Seconds()
				}
				return nil
			})
		}
	}
	return err
}

// eventCounter tallies predictor round events, as the server's
// per-shard recorder does.
type eventCounter struct{ rounds, cold, secondary, replaced float64 }

func (e *eventCounter) Record(ev predictor.Event) {
	e.rounds++
	if ev&predictor.EvCold != 0 {
		e.cold++
	}
	if ev&predictor.EvFromSecondary != 0 {
		e.secondary++
	}
	if ev&predictor.EvReplaced != 0 {
		e.replaced++
	}
}

// probeTraces materialises up to 64K leading traces of each stream, so
// probes time the layer under test and not the stream decoder.
func probeTraces(streams []*stream.Stream) [][]trace.Trace {
	out := make([][]trace.Trace, len(streams))
	for i, s := range streams {
		out[i] = make([]trace.Trace, min(1<<16, s.Len()))
		s.Cursor().NextBatch(out[i])
	}
	return out
}

// probeBatch times predictor.PredictBatch round-robin over n fresh
// serving predictors, predictor i replaying stream i mod len(streams)
// batch by batch from its own offset.
func probeBatch(streams []*stream.Stream, n, batch int, withPreds bool, d time.Duration) (nsPerTrace, allocsPerTrace float64, ev *eventCounter, err error) {
	mats := probeTraces(streams)
	ev = &eventCounter{}
	cfg := servingPredictor
	cfg.Recorder = ev
	ps := make([]predictor.NextTracePredictor, n)
	pos := make([]int, n)
	for i := range ps {
		if ps[i], err = predictor.New(cfg); err != nil {
			return 0, 0, ev, err
		}
		pos[i] = (i * 7919) % (len(mats[i%len(mats)]) - batch)
	}
	var preds []predictor.Prediction
	if withPreds {
		preds = make([]predictor.Prediction, batch)
	}
	round := func() int {
		for i, p := range ps {
			m := mats[i%len(mats)]
			if pos[i]+batch > len(m) {
				pos[i] = 0
			}
			predictor.PredictBatch(p, m[pos[i]:pos[i]+batch], preds)
			pos[i] += batch
		}
		return n * batch
	}
	for t0 := time.Now(); time.Since(t0) < d/2; {
		round()
	}
	mem0 := readMem()
	t0 := time.Now()
	traces := 0
	for time.Since(t0) < d {
		traces += round()
	}
	el := time.Since(t0)
	mem1 := readMem()
	return float64(el) / float64(traces), float64(mem1.mallocs-mem0.mallocs) / float64(traces), ev, nil
}

// probeUnbounded times the unbounded-table predictor (§5.2) of the
// experiments, from empty tables, over at least one pass of the traces.
func probeUnbounded(s *stream.Stream, d time.Duration) (float64, error) {
	cfg := servingPredictor
	cfg.Backend = "unbounded"
	p, err := predictor.New(cfg)
	if err != nil {
		return 0, err
	}
	m := probeTraces([]*stream.Stream{s})[0]
	t0 := time.Now()
	traces := 0
	for traces < len(m) || time.Since(t0) < d {
		for i := range m {
			p.Predict()
			p.Update(&m[i])
		}
		traces += len(m)
	}
	return float64(time.Since(t0)) / float64(traces), nil
}

// probeSnapshot trains a serving predictor on the whole stream, then
// times what a shard does for OpSnapshot (backend Save plus
// snapshot.Encode) and for OpRestore (snapshot.Decode plus Restore).
func probeSnapshot(s *stream.Stream) (frameBytes, encodeUs, decodeUs float64, err error) {
	b, err := predictor.ResolveBackend(servingPredictor)
	if err != nil {
		return 0, 0, 0, err
	}
	p, err := b.New(servingPredictor)
	if err != nil {
		return 0, 0, 0, err
	}
	buf := make([]trace.Trace, 256)
	for c := s.Cursor(); ; {
		k := c.NextBatch(buf)
		if k == 0 {
			break
		}
		predictor.UpdateBatch(p, buf[:k])
	}
	var frame []byte
	var enc, dec []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		state, err := b.Save(p)
		if err == nil {
			frame, err = snapshot.Encode(&snapshot.Session{ID: 1, Backend: b.Name, State: state})
		}
		enc = append(enc, float64(time.Since(t0))/1e3)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		sess, err := snapshot.Decode(frame)
		if err == nil {
			_, err = b.Restore(sess.State, servingPredictor)
		}
		dec = append(dec, float64(time.Since(t0))/1e3)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return float64(len(frame)), median(enc), median(dec), nil
}

// probeReplay times Stream.Replay into a trivial consumer.
func probeReplay(streams []*stream.Stream, d time.Duration) float64 {
	var sink int
	consume := func(tr *trace.Trace) { sink += tr.Len }
	t0 := time.Now()
	traces := 0
	for time.Since(t0) < d {
		for _, s := range streams {
			s.Replay(nil, consume)
			traces += s.Len()
		}
	}
	return float64(time.Since(t0)) / float64(traces)
}

// probeNextBatch times Cursor.NextBatch refills of batch traces.
func probeNextBatch(streams []*stream.Stream, batch int, d time.Duration) float64 {
	buf := make([]trace.Trace, batch)
	t0 := time.Now()
	traces := 0
	for time.Since(t0) < d {
		for _, s := range streams {
			for c := s.Cursor(); ; {
				k := c.NextBatch(buf)
				if k == 0 {
					break
				}
				traces += k
			}
		}
	}
	return float64(time.Since(t0)) / float64(traces)
}
