package metrics

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// Allocation bound for FuzzParseText: ParseText may allocate at most
// parseBytesPerByte bytes per input byte plus parseFixedBytes. The fixed
// part is the scanner's 64 KiB buffer and its doubling towards the
// 1 MiB line cap. The per-byte part is paid by many short lines: each
// costs a line string, a Fields slice and an amortised Sample append,
// plus a label map if it has a label block. The measured worst case is
// 64 bytes per input byte, for lines of `a{=""}0`.
const (
	parseBytesPerByte = 96
	parseFixedBytes   = 2 << 20
)

// FuzzParseText feeds ParseText arbitrary bytes, which is what ntpstat
// does with a live scrape. It must never panic, must stay inside the
// allocation bound above, must return no snapshot with an error, and an
// accepted snapshot holds at most one sample per input line, each with
// a name.
func FuzzParseText(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("fz_requests_total", "Requests.", Labels{"client": `a"b\c`}).Add(3)
	reg.Gauge("fz_depth", "Depth.", nil).Set(-2)
	reg.Histogram("fz_seconds", "Latency.", 1e-9, Labels{"shard": "0"}).Observe(2_000_000)
	var rendered bytes.Buffer
	if err := reg.Render(&rendered); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		rendered.String(),
		"",
		"# HELP x y\n# TYPE x counter\nx 1\n",
		"x{k=\"v\"} 3 1712345678\n",
		"x{k=\"a\\\\b\\\"c\\nd\\q\"} NaN\n",
		"x{k=\"v\",} +Inf\n",
		"x{ k = \"v\" } -0x1p-2\n",
		"name_only\n",
		"x{unterminated=\"v\n",
		"x{k=v} 1\n",
		"{k=\"v\"} 1\n",
		"x 1 2 3\n",
		strings.Repeat("a{}0\n", 200),
		strings.Repeat("a{=\"\"}0\n", 200),
		strings.Repeat("x", 70_000) + " 1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		snap, err := ParseText(bytes.NewReader(in))
		runtime.ReadMemStats(&m1)
		if n, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(parseBytesPerByte*len(in)+parseFixedBytes); n > limit {
			t.Fatalf("ParseText allocated %d bytes for a %d-byte input", n, len(in))
		}
		if err != nil {
			if snap != nil {
				t.Fatalf("rejected input (%v) returned a snapshot", err)
			}
			return
		}
		samples := 0
		for name, ss := range snap.byName {
			if name == "" || strings.ContainsAny(name, "{ ") {
				t.Fatalf("accepted sample name %q", name)
			}
			for _, s := range ss {
				if s.Name != name {
					t.Fatalf("sample %q filed under %q", s.Name, name)
				}
			}
			samples += len(ss)
		}
		if lines := bytes.Count(in, []byte("\n")) + 1; samples > lines {
			t.Fatalf("%d samples from %d lines", samples, lines)
		}
	})
}
