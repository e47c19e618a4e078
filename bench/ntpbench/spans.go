package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of
// one request share Req; Parent is the ID of the enclosing span (0 at
// the root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpansPerLog bounds one goroutine's span buffer (64 B a span);
// spans past it are counted as dropped rather than recorded.
const maxSpansPerLog = 1 << 20

// tracer hands out span IDs and collects the span logs of every
// goroutine that recorded. Spans stay in memory until the run ends.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	dropped atomic.Uint64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// log returns a span buffer for one goroutine; nil on a nil tracer, so
// untraced runs pay a nil check per call site and nothing else.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	return &spanLog{t: t}
}

// spanLog is one goroutine's span buffer; only its owner appends.
type spanLog struct {
	t     *tracer
	spans []span
}

// begin opens a span and returns its handle (-1 when not recording).
func (l *spanLog) begin(name string, parent, req uint64) int {
	if l == nil {
		return -1
	}
	if len(l.spans) >= maxSpansPerLog {
		l.t.dropped.Add(1)
		return -1
	}
	l.spans = append(l.spans, span{
		ID: l.t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(l.t.epoch)),
	})
	return len(l.spans) - 1
}

func (l *spanLog) end(h int) {
	if h >= 0 {
		l.spans[h].End = int64(time.Since(l.t.epoch))
	}
}

// id is the span ID behind a handle, for use as a child's parent.
func (l *spanLog) id(h int) uint64 {
	if h < 0 {
		return 0
	}
	return l.spans[h].ID
}

// flush hands the buffer to the tracer. The log must not be used after.
func (l *spanLog) flush() {
	if l == nil {
		return
	}
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, l.spans...)
	l.t.mu.Unlock()
	l.spans = nil
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the time covered by child spans
}

// selfTimes groups spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to its own.
func selfTimes(spans []span) []*layerTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	var out []*layerTime
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			out = append(out, lt)
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered(s, children[s.ID]))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is how much of parent's interval the kids' intervals cover.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, layers []*layerTime) {
	for _, lt := range layers {
		fmt.Fprintf(w, "self_time %-28s count %8d total_ms %10.3f self_ms %10.3f\n",
			lt.Name, lt.Count, lt.Total.Seconds()*1e3, lt.Self.Seconds()*1e3)
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
