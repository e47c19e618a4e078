package main

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pathtrace/internal/metrics"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fmtList renders xs space-separated, each with format f.
func fmtList(xs []float64, f string) string {
	var b strings.Builder
	for _, x := range xs {
		b.WriteByte(' ')
		fmt.Fprintf(&b, f, x)
	}
	return b.String()
}

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnap is the runtime counters the benchmark diffs across a phase.
type memSnap struct {
	mallocs, allocBytes, numGC, pauseNs uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

// runtimeLayers adds the runtime per-layer metrics of a phase that
// served requests covering traces.
func runtimeLayers(m map[string]float64, a, b memSnap, requests, traces float64) {
	m["runtime.allocs_per_request"] = float64(b.mallocs-a.mallocs) / requests
	m["runtime.alloc_bytes_per_trace"] = float64(b.allocBytes-a.allocBytes) / traces
	m["runtime.gc_cycles"] = float64(b.numGC - a.numGC)
	m["runtime.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
}

// liveHeapBytes forces a collection and returns the bytes still in use.
func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// scrape renders a server's metric registry and parses it back, the
// same read path /metrics consumers use.
func scrape(reg *metrics.Registry) (*metrics.Snapshot, error) {
	var b bytes.Buffer
	if err := reg.Render(&b); err != nil {
		return nil, err
	}
	return metrics.ParseText(&b)
}

// bucket is one histogram bucket's inclusive nanosecond range and the
// number of observations it gained over a window.
type bucket struct {
	lo, hi uint64
	count  float64
}

// histDelta merges every series of the nanosecond histogram family
// name (rendered in seconds) into one distribution of the observations
// made between two scrapes. Each series' cumulative buckets are
// de-cumulated before subtracting, because rendering skips empty
// buckets.
func histDelta(before, after *metrics.Snapshot, name string) []bucket {
	type key struct {
		series string
		hi     uint64
	}
	incr := map[key]float64{}
	collect := func(snap *metrics.Snapshot, sign float64) {
		perSeries := map[string][]bucket{}
		snap.Each(name+"_bucket", nil, func(l metrics.Labels, v float64) {
			if l["le"] == "+Inf" {
				return
			}
			le, err := strconv.ParseFloat(l["le"], 64)
			if err != nil {
				return
			}
			s := seriesKey(l)
			perSeries[s] = append(perSeries[s], bucket{hi: uint64(math.Round(le * 1e9)), count: v})
		})
		for s, bs := range perSeries {
			sort.Slice(bs, func(i, j int) bool { return bs[i].hi < bs[j].hi })
			prev := 0.0
			for _, b := range bs {
				incr[key{s, b.hi}] += sign * (b.count - prev)
				prev = b.count
			}
		}
	}
	collect(after, 1)
	collect(before, -1)
	merged := map[uint64]float64{}
	for k, c := range incr {
		if c > 0 {
			merged[k.hi] += c
		}
	}
	out := make([]bucket, 0, len(merged))
	for hi, c := range merged {
		out = append(out, bucket{lo: bucketLow(hi), hi: hi, count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].hi < out[j].hi })
	return out
}

func seriesKey(l metrics.Labels) string {
	keys := make([]string, 0, len(l))
	for k := range l {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + l[k] + ","
	}
	return s
}

// bucketLow is the smallest value in the internal/metrics histogram
// bucket whose largest value is hi: values below 16 have exact
// buckets, and every octave above is split into 8 equal sub-buckets.
func bucketLow(hi uint64) uint64 {
	if hi < 16 {
		return hi
	}
	width := uint64(1) << (bits.Len64(hi) - 4)
	return hi - width + 1
}

// histQuantile reads the q-quantile off merged buckets, interpolating
// linearly inside the bucket that holds the rank, so a small shift in
// the distribution moves the result instead of snapping to a bound.
func histQuantile(bs []bucket, q float64) float64 {
	var total float64
	for _, b := range bs {
		total += b.count
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	var cum float64
	for _, b := range bs {
		if cum+b.count >= rank {
			frac := (rank - cum) / b.count
			return float64(b.lo) + frac*float64(b.hi-b.lo+1)
		}
		cum += b.count
	}
	return float64(bs[len(bs)-1].hi)
}

func histCount(bs []bucket) (count float64) {
	for _, b := range bs {
		count += b.count
	}
	return count
}

// counterDelta is the growth of a counter family, summed over series.
func counterDelta(before, after *metrics.Snapshot, name string) float64 {
	return after.Sum(name, nil) - before.Sum(name, nil)
}
