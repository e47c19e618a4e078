package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"pathtrace/internal/experiments"
	"pathtrace/internal/stream"
	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

// reproValues holds the exhibit Values the repro sweep must reproduce
// exactly, keyed by stream length and exhibit id. Regenerate with
// `go test ./ntpbench -run TestReproValues -update` (from bench/).
//
//go:embed testdata/repro_values.json
var reproValues []byte

type valueSet map[string]map[string]map[string]float64 // limit -> exhibit -> key -> value

func goldenValues(limit uint64) (map[string]map[string]float64, error) {
	var all valueSet
	if err := json.Unmarshal(reproValues, &all); err != nil {
		return nil, fmt.Errorf("repro values: %w", err)
	}
	g, ok := all[strconv.FormatUint(limit, 10)]
	if !ok {
		return nil, fmt.Errorf("repro values: none recorded for %d-instruction streams", limit)
	}
	return g, nil
}

// captureSuite fills a fresh private stream cache with the six
// benchmarks' streams: the capture an offline user's first sweep pays.
func captureSuite(limit uint64, log *spanLog, parent uint64) (c *stream.Cache, streams []*stream.Stream, took time.Duration, err error) {
	c = stream.NewCache()
	for _, name := range workload.Names() {
		w, _ := workload.ByName(name)
		h := log.begin("stream.capture", parent, 0)
		t0 := time.Now()
		s, err := c.Get(nil, w, limit, trace.DefaultConfig())
		took += time.Since(t0)
		log.end(h)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("capture %s: %w", name, err)
		}
		streams = append(streams, s)
	}
	return c, streams, took, nil
}

// exhibitTime is one exhibit run's wall time and process CPU time.
type exhibitTime struct{ wall, cpu time.Duration }

// sweep runs the exhibits once in order, returning each one's time and
// Values; a failed exhibit is reported and the sweep goes on.
func sweep(ids []string, opt experiments.Options, log *spanLog, parent uint64) (took map[string]exhibitTime, values map[string]map[string]float64, failed []error) {
	took, values = map[string]exhibitTime{}, map[string]map[string]float64{}
	for _, id := range ids {
		e, ok := experiments.ByName(id)
		if !ok {
			failed = append(failed, fmt.Errorf("unknown exhibit %q", id))
			continue
		}
		h := log.begin("experiments."+id, parent, 0)
		t0, cpu0 := time.Now(), cpuTime()
		res, err := e.Run(opt)
		took[id] = exhibitTime{time.Since(t0), cpuTime() - cpu0}
		log.end(h)
		if err != nil {
			failed = append(failed, fmt.Errorf("%s: %w", id, err))
			continue
		}
		values[id] = res.Values
	}
	return took, values, failed
}

// diffValues lists where an exhibit's Values differ from the recorded
// ones, comparing bit for bit (NaN equals NaN).
func diffValues(id string, got, want map[string]float64) []string {
	var out []string
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			out = append(out, fmt.Sprintf("%s: %s missing", id, k))
		} else if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			out = append(out, fmt.Sprintf("%s: %s = %v, recorded %v", id, k, g, w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("%s: %s not recorded", id, k))
		}
	}
	return out
}

// runRepro measures the offline user's exhibit sweep. A request is one
// exhibit run, as `ntp -run <id>`; suite traces (the six streams'
// lengths summed) normalise a sweep to the per-trace units the serving
// workloads use.
func runRepro(rc runConfig) (*outcome, error) {
	sc := rc.sc
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	log := tr.log()
	root := log.begin("workload", 0, 0)
	o := newOutcome()
	o.tr = tr
	golden, err := goldenValues(sc.limit)
	if err != nil {
		return nil, err
	}

	var cache *stream.Cache
	var setups []float64
	var captured time.Duration
	var instrs uint64
	for rep := 0; rep < sc.setupReps; rep++ {
		cache, o.streams = nil, nil // every repetition captures into fresh memory
		runtime.GC()
		debug.FreeOSMemory()
		h := log.begin("setup", log.id(root), 0)
		c, streams, took, err := captureSuite(sc.limit, log, log.id(h))
		log.end(h)
		if err != nil {
			return nil, err
		}
		cache, o.streams = c, streams
		setups = append(setups, took.Seconds())
		captured += took
		for _, s := range streams {
			instrs += s.Instrs()
		}
	}
	var suiteTraces float64
	for _, s := range o.streams {
		suiteTraces += float64(s.Len())
	}
	fmt.Fprintf(rc.log, "info setups s:%s\n", fmtList(setups, "%.4f"))
	fmt.Fprintf(rc.log, "info load: closed loop, one offline user sweeping %d exhibits back to back over %.0f suite traces (six streams of %d instructions), private stream cache, GOMAXPROCS %d\n",
		len(sc.exhibits), suiteTraces, sc.limit, runtime.GOMAXPROCS(0))

	opt := experiments.Options{Limit: sc.limit, Streams: cache}
	check := func(values map[string]map[string]float64, failed []error) {
		for _, err := range failed {
			o.mismatches = append(o.mismatches, err.Error())
		}
		for id, v := range values {
			o.mismatches = append(o.mismatches, diffValues(id, v, golden[id])...)
		}
	}
	// One unreported sweep warms the caches; it is checked like the rest.
	_, values, failed := sweep(sc.exhibits, opt, nil, 0)
	check(values, failed)

	mem0 := readMem()
	var sweeps, traced, untraced []float64
	runs := map[string][]exhibitTime{}
	var last map[string]map[string]float64
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < rc.measure; i++ {
		on := rc.trace && i%2 == 0
		h := -1
		if on {
			h = log.begin("measure", log.id(root), 0)
		}
		t0 := time.Now()
		var took map[string]exhibitTime
		var failed []error
		if on {
			took, last, failed = sweep(sc.exhibits, opt, log, log.id(h))
		} else {
			took, last, failed = sweep(sc.exhibits, opt, nil, 0)
		}
		d := time.Since(t0).Seconds()
		log.end(h)
		check(last, failed)
		o.attempted += int64(len(sc.exhibits))
		o.failed += int64(len(failed))
		sweeps = append(sweeps, d)
		if on {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
		for id, t := range took {
			runs[id] = append(runs[id], t)
		}
	}
	mem1 := readMem()
	liveHeap := liveHeapBytes()
	headline, ok := last["headline"]
	if !ok {
		return nil, fmt.Errorf("the sweep must include headline, whose mean.bounded is miss_pct")
	}

	// Each exhibit run is a request and a window: an exhibit's time is
	// the median of its fastest runs, and the sweep is their sum.
	fast := map[string]float64{}
	var sweepS, sweepCPU float64
	var requestUs []float64
	fastRuns := 0
	for _, id := range sc.exhibits {
		rs := runs[id]
		cost := make([]float64, len(rs))
		for i, r := range rs {
			cost[i] = r.wall.Seconds()
		}
		var wall, cpu []float64
		for _, i := range fastest(cost) {
			wall = append(wall, rs[i].wall.Seconds())
			cpu = append(cpu, float64(rs[i].cpu))
		}
		fastRuns = len(wall)
		fast[id] = median(wall)
		sweepS += fast[id]
		sweepCPU += median(cpu)
		requestUs = append(requestUs, fast[id]*1e6)
	}
	work := float64(len(sweeps)) * suiteTraces
	o.e2e = map[string]float64{
		"traces_per_s": suiteTraces / sweepS,
		"rtt_mean_us":  mean(requestUs),
		"setup_s":      median(setups),
		"live_heap_mb": float64(liveHeap) / (1 << 20),
		"miss_pct":     headline["mean.bounded"],
	}
	o.samples = map[string]int{"sweeps": len(sweeps), "exhibit_runs": int(o.attempted), "fast_runs_per_exhibit": fastRuns,
		"rtt": len(requestUs), "setup_reps": len(setups)}
	fmt.Fprintf(rc.log, "info samples: %d measured sweeps; each exhibit's time from its fastest %d of %d runs; rtt_mean_us over those times of the %d exhibits; sweep_s %.4f (their sum); %d set-ups\n",
		len(sweeps), fastRuns, len(sweeps), len(requestUs), sweepS, len(setups))
	fmt.Fprintf(rc.log, "info sweeps s:%s\n", fmtList(sweeps, "%.4f"))
	fmt.Fprintf(rc.log, "info unbounded: rtt_p99_us %.3f (the slowest exhibit's fast time), cpu_ns_per_trace %.3f (per-layer runtime.cpu_ns_per_trace)\n",
		quantile(requestUs, 0.99), sweepCPU/suiteTraces)

	o.layer = map[string]float64{"stream.capture_ns_per_instr": float64(captured) / float64(instrs),
		"runtime.cpu_ns_per_trace": sweepCPU / suiteTraces}
	runtimeLayers(o.layer, mem0, mem1, float64(o.attempted), work)
	for id, s := range fast {
		o.layer["experiments."+id+"_s"] = s
	}
	if rc.trace {
		o.layer["trace_overhead_pct"] = 100 * (1 - median(untraced)/median(traced))
	}
	log.end(root)
	log.flush()
	return o, nil
}
