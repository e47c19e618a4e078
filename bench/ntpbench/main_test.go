package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"pathtrace/internal/experiments"
	"pathtrace/internal/stream"
)

var update = flag.Bool("update", false, "rewrite testdata/repro_values.json from this commit")

// declared is the part of BENCHMARK.json the smoke test checks.
type declared struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// toy keeps every code path of the full scale but shrinks the inputs so
// the smoke test finishes in seconds.
var toy = scale{limit: 200_000, fanoutSessions: 16, warmup: 100 * time.Millisecond, setupReps: 1,
	exhibits: []string{"table1", "headline"}, probeLimit: 100_000, probeTime: 20 * time.Millisecond}

// TestSmoke runs every workload at toy scale, untraced and traced, and
// checks the output against what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec declared
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics: over the limits (8, 16, 128)",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, ntpbench runs %v", names, workloadNames)
	}
	for mode, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		seen := map[string]bool{}
		for _, m := range want {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q malformed or repeated", m.Name)
			}
			seen[m.Name] = true
		}
		for _, w := range workloadNames {
			var out, errOut bytes.Buffer
			rc := runConfig{seed: 1, measure: 300 * time.Millisecond, trace: mode == 1, sc: toy, log: &out}
			if _, code := runOne(w, rc, provenance{}, "", &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", w, mode, code, out.String(), errOut.String())
			}
			checkOutput(t, w, mode, out.String(), want)
		}
	}
}

func checkOutput(t *testing.T, workload string, mode int, out string, want []struct{ Name, Unit string }) {
	t.Helper()
	printed := map[string]string{}
	var last string
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 4 && f[0] == "metric" {
			printed[f[1]] = f[3]
		}
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &res); err != nil || len(res) != 4 {
		t.Fatalf("%s trace=%d: last line %q is not the four-key result", workload, mode, last)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("%s trace=%d: correct %v, attempted %d, failed %d", workload, mode, r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json declares %d", workload, mode, len(r.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit || printed[m.Name] != m.Unit {
			t.Errorf("%s trace=%d: metric %s printed with unit %q, result %+v; declared unit %q",
				workload, mode, m.Name, printed[m.Name], got, m.Unit)
		}
	}
}

// TestPassedRecords checks that a record whose run failed its
// correctness checks never reaches a result file.
func TestPassedRecords(t *testing.T) {
	out := "metric traces_per_s 1 traces/s\n" +
		`record {"workload":"bulk","correct":false,"attempted":5,"failed":0}` + "\n" +
		`record {"workload":"fanout","correct":true,"attempted":5,"failed":0}` + "\n" +
		`{"correct":true,"attempted":5,"failed":0,"metrics":{}}` + "\n"
	recs := passedRecords(strings.NewReader(out))
	if len(recs) != 1 || recs[0].Workload != "fanout" {
		t.Fatalf("got %+v, want only the fanout record", recs)
	}
}

// TestReproValues regenerates the exhibit Values the repro workload
// checks, at both scales, when run with -update.
func TestReproValues(t *testing.T) {
	if !*update {
		t.Skip("regenerates testdata/repro_values.json with -update")
	}
	set := valueSet{}
	for _, sc := range []scale{full, toy} {
		opt := experiments.Options{Limit: sc.limit, Streams: stream.NewCache()}
		_, values, failed := sweep(sc.exhibits, opt, nil, 0)
		if len(failed) > 0 {
			t.Fatal(failed)
		}
		set[strconv.FormatUint(sc.limit, 10)] = values
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/repro_values.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
