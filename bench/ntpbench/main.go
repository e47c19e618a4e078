// Command ntpbench is the repository's end-to-end benchmark. It runs
// one workload per process: an in-process ntpd (serve.NewServer on
// loopback) driven by a closed-loop load generator for the serving
// workloads (bulk, fanout, durable), or the paper's exhibit sweep for
// the offline workload (repro). Each run sets up, warms up, measures
// for -seconds in short windows and reads every end-to-end timing from
// the fastest tenth of them, checks that every served or reproduced
// result is correct, and prints every metric as "metric <name> <value>
// <unit>", ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// run records spans around its calls into each layer, runs the layer
// probes, and reports the per-layer set instead. Without -workload the
// four workloads run one after another, each in a fresh child process.
// -out appends the records of the runs that passed their correctness
// checks to a result file, so runs made at different times (alternating
// parent and change, say) collect into one file per side.
//
//	go run ./ntpbench -seed 1                      (from bench/)
//	go run ./ntpbench -workload fanout -seed 3 -trace 1 -spans spans.json
//	go run ./ntpbench -seed 1 -out results/set.json
//
// bench/README.md maps every metric to its layer and workload.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	// Load comes from one process using at most the two processors of
	// the machine the baselines were recorded on.
	runtime.GOMAXPROCS(2)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec declares one reported metric and its unit.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"traces_per_s", "traces/s"},
	{"rtt_mean_us", "us"},
	{"setup_s", "s"},
	{"live_heap_mb", "MiB"},
	{"miss_pct", "%"},
}

// paperExhibits is the sweep the offline user runs to regenerate the
// paper's evaluation.
var paperExhibits = []string{"table1", "table2", "fig6", "table3", "fig7", "table4", "costreduced", "fig8", "headline"}

var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"predictor.batch_ns_per_trace", "ns"},
		{"predictor.allocs_per_trace", "count"},
		{"predictor.unbounded_ns_per_trace", "ns"},
		{"predictor.cold_frac", "ratio"},
		{"predictor.secondary_frac", "ratio"},
		{"predictor.replace_frac", "ratio"},
		{"serve.shard.busy_us_p50", "us"},
		{"serve.shard.busy_us_p99", "us"},
		{"serve.shard.busy_frac", "ratio"},
		{"serve.outside_shard_us_p50", "us"},
		{"serve.frames_per_s", "1/s"},
		{"serve.batch_size_mean", "traces"},
		{"serve.overloads", "count"},
		{"serve.throttled", "count"},
		{"serve.client.open_us_p50", "us"},
		{"serve.client.rtt_p99_us", "us"},
		{"serve.update_dups", "count"},
		{"serve.client.snapshot_us_p50", "us"},
		{"snapshot.frame_bytes", "bytes"},
		{"snapshot.encode_us", "us"},
		{"snapshot.decode_us", "us"},
		{"stream.capture_ns_per_instr", "ns"},
		{"stream.next_batch_ns_per_trace", "ns"},
		{"stream.replay_ns_per_trace", "ns"},
	}
	for _, id := range paperExhibits {
		m = append(m, metricSpec{"experiments." + id + "_s", "s"})
	}
	return append(m,
		metricSpec{"runtime.cpu_ns_per_trace", "ns"},
		metricSpec{"runtime.allocs_per_request", "count"},
		metricSpec{"runtime.alloc_bytes_per_trace", "bytes"},
		metricSpec{"runtime.gc_cycles", "count"},
		metricSpec{"runtime.gc_pause_ms", "ms"},
		metricSpec{"trace_overhead_pct", "%"},
	)
}()

// workloadNames lists the workloads in the order a full set runs them.
var workloadNames = []string{"bulk", "fanout", "durable", "repro"}

// scale sizes a run.
type scale struct {
	limit          uint64        // instructions captured per benchmark stream
	fanoutSessions int           // sessions of the fanout workload
	warmup         time.Duration // unreported load before measuring
	setupReps      int           // set-ups per run; setup_s is their median
	exhibits       []string      // the repro sweep
	probeLimit     uint64        // stream length for the exhibit probe of serving runs
	probeTime      time.Duration // measuring time of each timed layer probe
}

// full is the benchmark's scale.
var full = scale{limit: 2_000_000, fanoutSessions: 1024, warmup: 3 * time.Second, setupReps: 5,
	exhibits: paperExhibits, probeLimit: 200_000, probeTime: 300 * time.Millisecond}

// The measured phase is cut into windows of about windowLen. On a
// shared host a neighbour can take the processor caches away for tens
// of seconds and slow every layer by up to half; a window so slowed
// measures the neighbour, not the program. Every end-to-end timing is
// therefore read from the fastest fastShare of the windows (at least
// one): the windows least disturbed. For repro each exhibit run is a
// window, and each exhibit's fastest runs are kept.
const (
	windowLen = 250 * time.Millisecond
	fastShare = 0.1
)

// windowCount is how many windows a measured phase of length d has: at
// least two, so a traced run has an untraced window to compare with.
func windowCount(d time.Duration) int {
	return max(2, int(math.Round(float64(d)/float64(windowLen))))
}

// fastest returns the indexes of the fastest fastShare of the windows
// (at least one), given each window's time per unit of work.
func fastest(cost []float64) []int {
	idx := make([]int, len(cost))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cost[idx[a]] < cost[idx[b]] })
	return idx[:max(1, int(math.Round(fastShare*float64(len(cost)))))]
}

// runConfig is one workload run's settings.
type runConfig struct {
	seed    int64
	measure time.Duration
	trace   bool
	sc      scale
	log     io.Writer // human-readable progress and info lines
}

// result is the last line of a run, for tools that read it: exactly
// these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance makes two result files comparable without guessing.
type provenance struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	Trace      bool    `json:"trace"`
	WarmupS    float64 `json:"warmup_s"`
	MeasureS   float64 `json:"measure_s"`
	Windows    int     `json:"windows"`
	FastShare  float64 `json:"fast_share"`
	Date       string  `json:"date"`
}

// record is one workload run as written to a result file.
type record struct {
	Workload   string         `json:"workload"`
	Provenance provenance     `json:"provenance"`
	Samples    map[string]int `json:"samples"`
	result
}

// resultFile is the document -out writes: one record per workload run.
type resultFile struct {
	Provenance provenance `json:"provenance"`
	Records    []record   `json:"records"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadF := fs.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all, each in a fresh process)")
	seed := fs.Int64("seed", 1, "input seed: session start offsets and fanout's benchmark assignment")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload")
	traceF := fs.Int("trace", 0, "1 = traced run: record spans, run layer probes, report the per-layer metrics")
	spansF := fs.String("spans", "", "traced run: write the recorded spans to this JSON file")
	outF := fs.String("out", "", "append the records of the runs that passed their checks, with provenance, to this JSON result file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traceF != 0 && *traceF != 1) {
		fmt.Fprintln(stderr, "ntpbench: usage: ntpbench [-workload w] [-seed n] [-seconds s] [-trace 0|1] [-spans f] [-out f]")
		return 2
	}
	rc := runConfig{seed: *seed, measure: time.Duration(*seconds * float64(time.Second)),
		trace: *traceF == 1, sc: full, log: stdout}
	prov := provenance{
		Commit: gitCommit(), Seed: *seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, Trace: rc.trace,
		WarmupS: full.warmup.Seconds(), MeasureS: rc.measure.Seconds(), Windows: windowCount(rc.measure),
		FastShare: fastShare, Date: time.Now().UTC().Format(time.RFC3339),
	}
	var recs []record
	code := 0
	if *workloadF == "" {
		child := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(*traceF)}
		recs, code = runAll(child, stdout, stderr)
	} else {
		var rec record
		rec, code = runOne(*workloadF, rc, prov, *spansF, stdout, stderr)
		if rec.Correct {
			recs = []record{rec}
		}
	}
	if *outF != "" && len(recs) > 0 {
		if err := appendRecords(*outF, prov, recs); err != nil {
			fmt.Fprintf(stderr, "ntpbench: %v\n", err)
			return 1
		}
	}
	return code
}

// appendRecords adds recs to the result file at path, creating it with
// prov as its provenance if it does not exist yet. Every record keeps
// its own provenance.
func appendRecords(path string, prov provenance, recs []record) error {
	f := resultFile{Provenance: prov}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	f.Records = append(f.Records, recs...)
	return writeJSON(path, f)
}

// runOne runs a workload in this process and prints its metrics, its
// record and, last, the result line. The record it returns is the zero
// record (Correct false) when the run could not report.
func runOne(name string, rc runConfig, prov provenance, spansPath string, stdout, stderr io.Writer) (record, int) {
	var o *outcome
	var err error
	switch name {
	case "bulk", "fanout", "durable":
		o, err = runServing(name, rc)
	case "repro":
		o, err = runRepro(rc)
	default:
		fmt.Fprintf(stderr, "ntpbench: unknown workload %q (have %s)\n", name, strings.Join(workloadNames, ", "))
		return record{}, 2
	}
	if err == nil && rc.trace {
		err = runProbes(name, rc, o)
		o.spans = o.tr.spans
	}
	if err != nil {
		fmt.Fprintf(stderr, "ntpbench: %s: %v\n", name, err)
		return record{}, 1
	}
	specs, values := endToEnd, o.e2e
	if rc.trace {
		specs, values = perLayer, o.layer
		printSelfTimes(stdout, selfTimes(o.spans))
		o.samples["spans"] = len(o.spans)
		if spansPath != "" {
			if err := writeSpans(spansPath, o.spans); err != nil {
				fmt.Fprintf(stderr, "ntpbench: %v\n", err)
				return record{}, 1
			}
		}
	}
	res := result{Correct: len(o.mismatches) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metric{}}
	for _, m := range o.mismatches {
		fmt.Fprintf(stdout, "MISMATCH %s\n", m)
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "ntpbench: %s: metric %s not measured (%v)\n", name, s.name, v)
			return record{}, 1
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Fprintf(stdout, "metric %-34s %16.6g %s\n", s.name, v, s.unit)
	}
	rec := record{Workload: name, Provenance: prov, Samples: o.samples, result: res}
	// Every value is finite (checked above), so neither Marshal can fail.
	line, _ := json.Marshal(rec)
	fmt.Fprintf(stdout, "record %s\n", line)
	line, _ = json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return rec, 1
	}
	return rec, 0
}

// runAll runs each workload in its own child process, so no workload
// inherits another's heap, page faults or scheduler state. It returns
// the records of the children that passed their correctness checks.
func runAll(childArgs []string, stdout, stderr io.Writer) ([]record, int) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "ntpbench: %v\n", err)
		return nil, 1
	}
	var recs []record
	code := 0
	for _, w := range workloadNames {
		var buf bytes.Buffer
		cmd := exec.Command(self, append([]string{"-workload", w}, childArgs...)...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "ntpbench: workload %s: %v\n", w, err)
			code = 1
			continue
		}
		recs = append(recs, passedRecords(&buf)...)
	}
	return recs, code
}

// passedRecords returns the records printed in a run's output that
// passed their correctness checks, so that a run that served wrong
// predictions never enters a result file's medians.
func passedRecords(out io.Reader) []record {
	var recs []record
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "record "); ok {
			var rec record
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Correct {
				recs = append(recs, rec)
			}
		}
	}
	return recs
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitCommit reads the checked-out commit from .git in the working
// directory, without running git or looking outside it; "unknown" when
// the directory is not a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
