// Command ntp regenerates the paper's tables and figures.
//
// Usage:
//
//	ntp -list
//	ntp -run table2
//	ntp -run fig7 -len 10000000
//	ntp -run fig8 -workloads compress,gcc
//	ntp -run all -len 5000000
//
// Hardened runs:
//
//	ntp -run all -timeout 5s -keep-going
//	ntp -run all -workloads compress,gcc,hang -timeout 5s -keep-going
//	ntp -run faults -inject table:1e-4,history:1e-5 -seed 7
//	ntp -run all -parallel 4 -timeout 30s -keep-going
//
// Backends:
//
//	ntp -run backends
//	ntp -run headline -backend tage
//
// -backend re-runs any exhibit with a different registered predictor
// backend (basic, hybrid, costreduced, tage, unbounded) substituted for
// the proposed-predictor arm; baselines and explicitly pinned variants
// keep their identity. The `backends` experiment races every registered
// backend over the same streams.
//
// Performance:
//
//	ntp -run all -cpuprofile cpu.pprof
//	ntp -run table2 -memprofile mem.pprof
//	ntp -bench
//	ntp -bench -benchout BENCH_custom.json
//	ntp -benchdiff BENCH_2026-08-08.json
//	ntp -run all -nocache
//	ntp -run all -streams .streams
//	ntp -run all -metricsout metrics.prom
//
// Each experiment streams the six benchmark workloads (or the subset
// given with -workloads) through the trace selector and prints the
// regenerated exhibit. -len scales the per-workload instruction budget;
// the paper used >= 100M instructions per benchmark.
//
// Workload characterization and the adversarial zoo:
//
//	ntp -run charz
//	ntp -run charz -workloads compress,wild,storm -values
//	ntp -run headline -workloads band-hi
//
// Besides the six benchmarks, -workloads accepts the synthetic
// adversarial zoo (wild, storm, phase, band-lo, band-hi): seed-
// deterministic generators built to defeat path predictors (wild
// data-dependent branches, indirect-target storms, phase shifts, noisy
// Markov tables). The `charz` experiment tabulates predictability
// metrics (entropy, transition rate, working set, H2P set — see
// internal/charz) against every backend's miss rate; with no
// -workloads subset it covers the benchmarks plus the whole zoo.
//
// Each (workload, limit, selection) trace stream is simulated once and
// recorded in a process-wide cache; every experiment replays the
// recording (see internal/stream). -nocache disables this and
// re-simulates per cell, trading wall-clock for a flat memory profile.
// -streams names a directory of stream files: cache misses load the
// key's file instead of simulating, and fresh captures are saved back,
// so repeated sweeps skip simulation entirely (the paper's own
// capture-once, sweep-many methodology made persistent).
//
// -timeout bounds each (experiment, workload) cell; -keep-going
// continues past failed cells, reporting them at the end; -parallel
// runs cells concurrently (output order stays deterministic). -inject
// enables deterministic fault injection (see internal/faults) and
// -seed pins its PRNG streams; the `faults` experiment sweeps scaled
// rates into a degradation curve. The synthetic `hang` workload (a
// program generator that blocks forever) is available by naming it in
// -workloads, to exercise the deadline machinery.
//
// -metricsout writes a Prometheus-text snapshot of the run at exit:
// per-cell wall-time histogram, per-outcome cell counts, fault-trip
// counters and the stream-cache activity counters (see internal/metrics
// and the harness_* / ntp_stream_* metric families).
//
// -cpuprofile / -memprofile write pprof profiles covering the run.
// -bench measures every experiment (plus the batched predict loop) with
// the testing package's benchmark driver and writes a BENCH_<date>.json
// record of ns/op, allocs/op and B/op for regression tracking.
// -benchdiff closes the loop: it re-measures the batched predict loop
// (best of three) against the predict-batch record of a committed
// BENCH_*.json baseline (BENCH_2026-08-08.json in CI) and exits
// non-zero if ns/op regressed more than -benchmaxregress percent or
// the hot path allocates — the CI bench-diff gate.
//
// All experiment output goes to stdout and is bit-for-bit reproducible
// for a fixed flag set; timing goes to stderr.
package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"flag"

	"pathtrace"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred cleanup (profile stop,
// profile write) runs before the process exits.
func run() int {
	var (
		list       = flag.Bool("list", false, "list available experiments and exit")
		runIDs     = flag.String("run", "", "comma-separated experiment ids to run, or \"all\"")
		length     = flag.Uint64("len", 0, "instructions per workload (default 2000000)")
		workloads  = flag.String("workloads", "", "comma-separated workload subset (default the six benchmarks; zoo members wild/storm/phase/band-lo/band-hi and \"hang\" opt in by name)")
		values     = flag.Bool("values", false, "also print the experiment's key metrics as CSV (key,value)")
		timeout    = flag.Duration("timeout", 0, "per-cell deadline, e.g. 5s (0 = none)")
		inject     = flag.String("inject", "", "fault-injection spec, e.g. table:1e-4,history:1e-5,stuck,bits:2")
		seed       = flag.Uint64("seed", 0, "fault-injection PRNG seed")
		keepGoing  = flag.Bool("keep-going", false, "continue past failed cells; report failures at the end")
		parallel   = flag.Int("parallel", 1, "cells to run concurrently")
		nocache    = flag.Bool("nocache", false, "disable the trace-stream cache; re-simulate every cell")
		streams    = flag.String("streams", "", "stream directory: load captured trace streams from (and save new ones to) this dir")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		bench      = flag.Bool("bench", false, "benchmark the experiments instead of printing exhibits")
		benchout   = flag.String("benchout", "", "benchmark JSON output path (default BENCH_<date>.json)")
		benchdiff  = flag.String("benchdiff", "", "re-measure the batched predict loop and fail on regression vs the predict-batch record of this BENCH_*.json baseline (e.g. BENCH_2026-08-08.json)")
		maxRegress = flag.Float64("benchmaxregress", 15, "benchdiff: max tolerated ns/op regression, percent")
		backend    = flag.String("backend", "", "predictor backend for the proposed-predictor arm (an unknown name lists the registry)")
		metricsout = flag.String("metricsout", "", "write run metrics (Prometheus text) to this file at exit")
	)
	flag.Parse()

	if *backend != "" {
		if _, ok := pathtrace.PredictorBackendByName(*backend); !ok {
			var names []string
			for _, b := range pathtrace.PredictorBackends() {
				names = append(names, b.Name)
			}
			fmt.Fprintf(os.Stderr, "ntp: unknown backend %q\nntp: backends: %s\n",
				*backend, strings.Join(names, ", "))
			return 2
		}
	}

	if *benchdiff != "" {
		return runBenchDiff(*benchdiff, *length, *maxRegress)
	}

	if *list || *runIDs == "" && !*bench {
		listExperiments()
		if *runIDs == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nuse -run <id> to run an experiment, or -bench to benchmark")
			return 2
		}
		return 0
	}

	opt := pathtrace.ExperimentOptions{Limit: *length, NoStreamCache: *nocache, Backend: *backend}
	if *streams != "" {
		if *nocache {
			fmt.Fprintln(os.Stderr, "ntp: -streams requires the stream cache; drop -nocache")
			return 2
		}
		if err := pathtrace.SharedStreamCache().SetDir(*streams); err != nil {
			fmt.Fprintf(os.Stderr, "ntp: -streams: %v\n", err)
			return 2
		}
	}
	if *workloads != "" {
		opt.Workloads = splitList(*workloads)
	}
	if *inject != "" || *seed != 0 {
		fcfg, err := pathtrace.ParseFaultSpec(*inject)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ntp: %v\n", err)
			return 2
		}
		fcfg.Seed = *seed
		opt.Faults = &fcfg
	}

	var ids []string
	if *runIDs == "all" || *runIDs == "" && *bench {
		for _, e := range pathtrace.Experiments() {
			ids = append(ids, e.Name)
		}
	} else {
		ids = splitList(*runIDs)
	}

	// Validate everything up front: a long sweep should not die on a
	// typo after an hour of simulation.
	if code := validate(ids, opt.Workloads); code != 0 {
		return code
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ntp: cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ntp: cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "ntp: wrote CPU profile to %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ntp: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ntp: memprofile: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "ntp: wrote heap profile to %s\n", *memprofile)
		}()
	}

	if *bench {
		return runBench(ids, opt, *benchout)
	}

	exps := make([]pathtrace.Experiment, len(ids))
	for i, id := range ids {
		exps[i], _ = pathtrace.ExperimentByName(id)
	}

	hardened := *timeout > 0 || *keepGoing || *parallel > 1
	cfg := pathtrace.HarnessConfig{
		Options:     opt,
		Timeout:     *timeout,
		KeepGoing:   *keepGoing,
		Parallel:    *parallel,
		PerWorkload: hardened,
	}
	if *metricsout != "" {
		cfg.Metrics = pathtrace.NewMetricsRegistry()
		// Stream-cache counters ride along as render-time reads, so the
		// written snapshot ties cell wall time to capture/replay traffic.
		cache := pathtrace.SharedStreamCache()
		for name, read := range map[string]func(s pathtrace.StreamCacheStats) uint64{
			"ntp_stream_captures_total":  func(s pathtrace.StreamCacheStats) uint64 { return s.Captures },
			"ntp_stream_hits_total":      func(s pathtrace.StreamCacheStats) uint64 { return s.Hits },
			"ntp_stream_failures_total":  func(s pathtrace.StreamCacheStats) uint64 { return s.Failures },
			"ntp_stream_loads_total":     func(s pathtrace.StreamCacheStats) uint64 { return s.Loads },
			"ntp_stream_bad_loads_total": func(s pathtrace.StreamCacheStats) uint64 { return s.BadLoads },
			"ntp_stream_saves_total":     func(s pathtrace.StreamCacheStats) uint64 { return s.Saves },
		} {
			read := read
			cfg.Metrics.CounterFunc(name, "Trace-stream cache activity.", nil,
				func() uint64 { return read(cache.Stats()) })
		}
	}

	start := time.Now()
	report, err := pathtrace.RunHarness(cfg, exps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntp: %v\n", err)
		return 1
	}

	failed := false
	for _, cell := range report.Cells {
		switch {
		case cell.Skipped:
			fmt.Fprintf(os.Stderr, "ntp: skipped %s\n", cell.Cell)
		case cell.Err != nil:
			failed = true
			fmt.Fprintf(os.Stderr, "ntp: FAIL %v (%.1fs)\n", cell.Err, cell.Err.Duration.Seconds())
		default:
			fmt.Printf("==== %s ====\n%s\n", cell.Cell, cell.Result.Text)
			fmt.Fprintf(os.Stderr, "ntp: %s done in %.1fs\n", cell.Cell, cell.Duration.Seconds())
			if *values {
				keys := make([]string, 0, len(cell.Result.Values))
				for k := range cell.Result.Values {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Printf("%s,%s,%g\n", cell.Cell, k, cell.Result.Values[k])
				}
			}
		}
	}
	if failed || !report.OK() {
		fmt.Println(report.Summary())
	}
	if !*nocache {
		st := pathtrace.SharedStreamCache().Stats()
		disk := ""
		if *streams != "" {
			disk = fmt.Sprintf(", %d loaded (%d bad)/%d saved to %s", st.Loads, st.BadLoads, st.Saves, *streams)
		}
		fmt.Fprintf(os.Stderr, "ntp: stream cache: %d captured, %d replayed, %d failed, %.1f MB%s\n",
			st.Captures, st.Hits, st.Failures, float64(st.Bytes)/(1<<20), disk)
	}
	fmt.Fprintf(os.Stderr, "ntp: total %.1fs\n", time.Since(start).Seconds())
	if cfg.Metrics != nil {
		if code := writeMetrics(*metricsout, cfg.Metrics); code != 0 {
			return code
		}
	}
	if failed {
		return 1
	}
	return 0
}

// writeMetrics renders the run's registry as Prometheus text.
func writeMetrics(path string, reg *pathtrace.MetricsRegistry) int {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntp: metricsout: %v\n", err)
		return 1
	}
	rerr := reg.Render(f)
	if cerr := f.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		fmt.Fprintf(os.Stderr, "ntp: metricsout: %v\n", rerr)
		return 1
	}
	fmt.Fprintf(os.Stderr, "ntp: wrote metrics to %s\n", path)
	return 0
}

// validate checks experiment ids and workload names before any cell
// runs, returning status 2 and the full list of unknowns on error.
func validate(ids, workloadNames []string) int {
	var unknown []string
	for _, id := range ids {
		if _, ok := pathtrace.ExperimentByName(id); !ok {
			unknown = append(unknown, "experiment "+id)
		}
	}
	for _, name := range workloadNames {
		if name == "hang" {
			// Opt-in: naming the hanging synthetic registers it.
			pathtrace.HangWorkload()
		}
		if _, ok := pathtrace.WorkloadByName(name); !ok {
			unknown = append(unknown, "workload "+name)
		}
	}
	if len(unknown) == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "ntp: unknown %s\n", strings.Join(unknown, ", "))
	var expIDs, wlNames []string
	for _, e := range pathtrace.Experiments() {
		expIDs = append(expIDs, e.Name)
	}
	for _, w := range pathtrace.Workloads() {
		wlNames = append(wlNames, w.Name)
	}
	fmt.Fprintf(os.Stderr, "ntp: experiments: %s\n", strings.Join(expIDs, ", "))
	fmt.Fprintf(os.Stderr, "ntp: workloads:   %s (plus \"hang\")\n", strings.Join(wlNames, ", "))
	return 2
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func listExperiments() {
	fmt.Println("Experiments (ntp -run <id>):")
	for _, e := range pathtrace.Experiments() {
		fmt.Printf("  %-18s %s\n                     %s\n", e.Name, e.Title, e.Desc)
	}
}
