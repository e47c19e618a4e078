package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles as the subprocess entry point: when NTP_RUN_MAIN is
// set, the test binary behaves as the ntp command itself (flags come
// from the environment-provided argv), so the validation tests below
// can exercise real exits through a real process boundary without
// building the binary separately.
func TestMain(m *testing.M) {
	if os.Getenv("NTP_RUN_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runNTP re-executes the test binary as ntp with the given flags.
func runNTP(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NTP_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// PR 1 pinned: unknown ids are validated up front, the process exits 2,
// and stderr names every unknown plus the full catalogs.
func TestUnknownExperimentExits2(t *testing.T) {
	_, stderr, code := runNTP(t, "-run", "nope")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"unknown experiment nope", "experiments:", "workloads:"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
	// The catalog must name real experiments so the user can fix the typo.
	if !strings.Contains(stderr, "table2") || !strings.Contains(stderr, "fig7") {
		t.Errorf("stderr catalog missing known experiments:\n%s", stderr)
	}
}

func TestUnknownWorkloadExits2(t *testing.T) {
	_, stderr, code := runNTP(t, "-run", "table2", "-workloads", "compress,bogus")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "unknown workload bogus") {
		t.Errorf("stderr missing unknown workload:\n%s", stderr)
	}
	if strings.Contains(stderr, "unknown workload compress") {
		t.Errorf("stderr wrongly flags a valid workload:\n%s", stderr)
	}
}

// Every unknown is listed in one pass — a long sweep must not die on
// the first typo only to reveal the second one an hour later.
func TestAllUnknownsListedTogether(t *testing.T) {
	_, stderr, code := runNTP(t, "-run", "nope1,nope2", "-workloads", "bogus")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"experiment nope1", "experiment nope2", "workload bogus"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

// -streams conflicts with -nocache (the stream directory rides on the
// cache), and the conflict is a flag-validation failure, not a late
// runtime one.
func TestStreamsRequiresCache(t *testing.T) {
	_, stderr, code := runNTP(t, "-run", "table2", "-nocache", "-streams", t.TempDir())
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "-streams requires the stream cache") {
		t.Errorf("stderr missing conflict message:\n%s", stderr)
	}
}

// -list exits 0 and prints the catalog without running anything.
func TestListExitsZero(t *testing.T) {
	stdout, _, code := runNTP(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if !strings.Contains(stdout, "table2") || !strings.Contains(stdout, "headline") {
		t.Errorf("-list output missing experiments:\n%s", stdout)
	}
}

// No flags at all: usage hint on stderr, exit 2.
func TestNoArgsExits2(t *testing.T) {
	stdout, stderr, code := runNTP(t)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stdout, "Experiments") {
		t.Errorf("expected the experiment list on stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, "-run") {
		t.Errorf("expected a usage hint on stderr:\n%s", stderr)
	}
}

// -backend is validated up front like experiment ids: an unknown name
// exits 2 and lists the registry so the user can fix the typo.
func TestUnknownBackendExits2(t *testing.T) {
	_, stderr, code := runNTP(t, "-run", "headline", "-backend", "nope")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, `unknown backend "nope"`) {
		t.Errorf("stderr missing unknown-backend error:\n%s", stderr)
	}
	for _, want := range []string{"hybrid", "tage"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr backend catalog missing %q:\n%s", want, stderr)
		}
	}
}

// benchDiffBaseline writes a minimal BENCH_*.json holding one record
// with the given name and ns/op and returns its path.
func benchDiffBaseline(t *testing.T, name string, nsPerOp float64) string {
	t.Helper()
	path := t.TempDir() + "/BENCH_base.json"
	doc := fmt.Sprintf(`{"date":"2026-01-01T00:00:00Z","limit":5000,`+
		`"results":[{"name":%q,"iterations":1,"ns_per_op":%g,`+
		`"allocs_per_op":0,"bytes_per_op":0}]}`, name, nsPerOp)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// -benchdiff gates on the baseline's predict-batch record: a generous
// baseline passes and the report names the benchmark.
func TestBenchDiffPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmark rounds")
	}
	const name = "predict-batch"
	stdout, stderr, code := runNTP(t, "-benchdiff", benchDiffBaseline(t, name, 1e12), "-len", "5000")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{name, "OK"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

// An impossibly fast baseline must trip the regression gate (exit 1).
func TestBenchDiffFailsOnRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmark rounds")
	}
	stdout, stderr, code := runNTP(t, "-benchdiff", benchDiffBaseline(t, "predict-batch", 1e-6), "-len", "5000")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "FAIL: predict-batch regressed") {
		t.Errorf("stdout missing regression verdict:\n%s", stdout)
	}
}

// Baseline problems are config errors (exit 2), distinct from a real
// regression: a missing file, a file with no records, and a file whose
// only record is predict-loop (the gate reads predict-batch alone).
func TestBenchDiffBadBaselineExits2(t *testing.T) {
	_, stderr, code := runNTP(t, "-benchdiff", t.TempDir()+"/absent.json")
	if code != 2 {
		t.Fatalf("missing file: exit code = %d, want 2\nstderr: %s", code, stderr)
	}
	empty := t.TempDir() + "/empty.json"
	if err := os.WriteFile(empty, []byte(`{"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{empty, benchDiffBaseline(t, "predict-loop", 1e12)} {
		_, stderr, code = runNTP(t, "-benchdiff", path)
		if code != 2 {
			t.Fatalf("%s: exit code = %d, want 2\nstderr: %s", path, code, stderr)
		}
		if !strings.Contains(stderr, "no predict-batch record") {
			t.Errorf("%s: stderr missing record error:\n%s", path, stderr)
		}
	}
}

// The hang workload is opt-in: it must be accepted by validation when
// named (PR 1 behavior), without simulating anything here (-list only
// validates registration, so use a bogus experiment to stop before any
// simulation: the hang name must NOT be among the unknowns).
func TestHangWorkloadAcceptedByValidation(t *testing.T) {
	_, stderr, code := runNTP(t, "-run", "nope", "-workloads", "hang")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr)
	}
	if strings.Contains(stderr, "workload hang") {
		t.Errorf("hang workload rejected by validation:\n%s", stderr)
	}
	if !strings.Contains(stderr, "unknown experiment nope") {
		t.Errorf("stderr missing the experiment error:\n%s", stderr)
	}
}

// diffRounds' verdict on scripted rounds: a slow round or one that
// allocates is measured again, up to three rounds; the fastest round's
// time is gated, and allocation fails only when every round allocated.
func TestDiffRoundsVerdict(t *testing.T) {
	const base = 100.0
	fast, slow := benchRecord{NsPerOp: 101}, benchRecord{NsPerOp: 130}
	alloc := func(r benchRecord) benchRecord { r.mallocs = 1; return r }
	for _, c := range []struct {
		name      string
		rounds    []benchRecord
		measured  int
		allocated bool
		pass      bool
	}{
		{"fast", []benchRecord{fast}, 1, false, true},
		{"slow then fast", []benchRecord{slow, fast}, 2, false, true},
		{"always slow", []benchRecord{slow, slow, slow}, 3, false, false},
		{"one stray allocation", []benchRecord{alloc(fast), fast}, 2, false, true},
		{"allocates, then slow", []benchRecord{alloc(fast), slow}, 2, false, true},
		{"allocates every round", []benchRecord{alloc(fast), alloc(fast), alloc(fast)}, 3, true, false},
	} {
		measured := 0
		rec, delta, allocated, err := diffRounds(base, func() (benchRecord, error) {
			measured++
			return c.rounds[measured-1], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		pass := !allocated && delta <= benchMaxRegress
		if measured != c.measured || allocated != c.allocated || pass != c.pass {
			t.Errorf("%s: measured %d rounds, allocated %v, pass %v (fastest %.0f ns); want %d, %v, %v",
				c.name, measured, allocated, pass, rec.NsPerOp, c.measured, c.allocated, c.pass)
		}
	}
}
