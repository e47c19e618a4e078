package predictor

import (
	"fmt"
	"testing"

	"pathtrace/internal/history"
	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

// This file is an executable specification of the paper's predictor:
// the correlated predictor of §3.2, the hybrid of §3.3, the Return
// History Stack of §3.4, the unbounded tables of §5.2, the hashed
// storage of §5.5 and the alternate prediction of §6, written plainly
// from those definitions. Entries are structs, the history is a slice,
// the DOLC index is built from the collected bits one by one, and the
// RHS is a stack of history copies. It shares no code with the kernel
// (no packing, no batch loop, no Token, no history.Reg), so
// TestKernelMatchesSpec judges the kernel against the definitions
// rather than against itself.

// The paper's table and counter parameters (§3.2–3.4), which a Config
// with these fields unset also gets.
const (
	specCtrMax    = 3  // 2-bit correlated counter
	specInc       = 1  // +1 when correct
	specDec       = 2  // -2 when wrong
	specSecMax    = 15 // 4-bit secondary counter
	specSecDec    = 15 // a miss clears it
	specSecBits   = 10 // secondary table of 1K entries
	specTagBits   = 10 // tag: low 10 bits of the preceding trace's hash
	specStackSize = 16 // RHS capacity
)

// specCorr is one correlated-table entry: a predicted trace with its
// counter (§3.2), the tag of the hybrid (§3.3) and the alternate
// prediction (§6). Values are full trace IDs, or hashed IDs when
// cost-reduced (§5.5).
type specCorr struct {
	valid    bool
	tag      uint64
	val      uint64
	ctr      int
	altValid bool
	alt      uint64
}

// specSec is one secondary-table entry (§3.3).
type specSec struct {
	valid bool
	val   uint64
	ctr   int
}

// specPos is one path-history position: a trace's full and hashed
// identifiers.
type specPos struct {
	id   trace.ID
	hash trace.HashedID
}

// specModel is the whole predictor. Exactly one of corr and ucorr is
// set: the bounded tables are slices indexed by DOLC and hashed ID, the
// unbounded ones maps keyed by the exact path of full identifiers and
// by the most recent full identifier.
type specModel struct {
	hybrid, rhs, costReduced bool
	dolc                     history.DOLC

	hist  []specPos   // hist[0] is the most recent trace; cold positions are zero
	stack [][]specPos // saved histories, top last

	corr []specCorr
	sec  []specSec

	ucorr map[[history.MaxSize]trace.ID]*specCorr
	usec  map[trace.ID]*specSec

	stats Stats
	bits  []uint64 // scratch for the DOLC collection
}

// newSpecBounded models the bounded predictor: basic (hybrid unset),
// hybrid, hybrid with RHS, or cost-reduced hybrid, indexed by DOLC d.
func newSpecBounded(d history.DOLC, hybrid, rhs, costReduced bool) *specModel {
	m := &specModel{hybrid: hybrid, rhs: rhs, costReduced: costReduced, dolc: d,
		hist: make([]specPos, d.Depth+1), corr: make([]specCorr, 1<<d.Index)}
	if hybrid {
		m.sec = make([]specSec, 1<<specSecBits)
	}
	return m
}

// newSpecUnbounded models the unbounded predictor of §5.2 at the given
// history depth: "each unique sequence of trace identifiers maps to its
// own table entry".
func newSpecUnbounded(depth int, hybrid, rhs bool) *specModel {
	m := &specModel{hybrid: hybrid, rhs: rhs,
		hist: make([]specPos, depth+1), ucorr: map[[history.MaxSize]trace.ID]*specCorr{}}
	if hybrid {
		m.usec = map[trace.ID]*specSec{}
	}
	return m
}

// index is the DOLC index of §3.2: the low Current bits of the most
// recent hashed ID, then the low Last bits of the one before, then the
// low Older bits of each older one, concatenated and folded onto
// themselves with exclusive-or in Index-bit segments.
func (m *specModel) index() int {
	m.bits = m.bits[:0]
	collect := func(h trace.HashedID, width int) {
		for b := 0; b < width; b++ {
			m.bits = append(m.bits, uint64(h)>>b&1)
		}
	}
	collect(m.hist[0].hash, m.dolc.Current)
	if m.dolc.Depth >= 1 {
		collect(m.hist[1].hash, m.dolc.Last)
	}
	for i := 2; i <= m.dolc.Depth; i++ {
		collect(m.hist[i].hash, m.dolc.Older)
	}
	idx := 0
	for p, bit := range m.bits {
		idx ^= int(bit) << (p % m.dolc.Index)
	}
	return idx
}

// entries returns the round's correlated entry, its secondary entry
// (nil without a secondary table) and the tag the correlated entry must
// carry to match.
func (m *specModel) entries() (c *specCorr, s *specSec, tag uint64) {
	if m.ucorr != nil {
		var path [history.MaxSize]trace.ID
		for i, p := range m.hist {
			path[i] = p.id
		}
		if c = m.ucorr[path]; c == nil {
			c = &specCorr{}
			m.ucorr[path] = c
		}
		if m.usec != nil {
			if s = m.usec[m.hist[0].id]; s == nil {
				s = &specSec{}
				m.usec[m.hist[0].id] = s
			}
		}
		return c, s, 0 // exact keys need no tag
	}
	c = &m.corr[m.index()]
	if m.hybrid {
		s = &m.sec[int(m.hist[0].hash)&(1<<specSecBits-1)]
		tag = uint64(m.hist[0].hash) & (1<<specTagBits - 1)
	}
	return c, s, tag
}

// value is what the tables store for a trace.
func (m *specModel) value(tr *trace.Trace) uint64 {
	if m.costReduced {
		return uint64(tr.Hash)
	}
	return uint64(tr.ID)
}

// step predicts the trace after the current path, then learns that it
// was next: it scores the prediction, trains both tables and advances
// the path history. It returns the prediction.
func (m *specModel) step(next *trace.Trace) Prediction {
	c, s, tag := m.entries()

	// Selection (§3.3): a saturated secondary counter wins; otherwise a
	// correlated entry whose tag matches, else the secondary. The basic
	// predictor has no tags, so any valid entry matches.
	secSaturated := s != nil && s.valid && s.ctr == specSecMax
	corrHit := c.valid && (!m.hybrid || c.tag == tag)
	var p Prediction
	var predicted uint64
	switch {
	case !secSaturated && corrHit:
		p.Valid, predicted = true, c.val
		p.AltValid = c.altValid
	case s != nil && s.valid:
		p.Valid, predicted = true, s.val
		p.FromSecondary = true
	}
	if p.Valid {
		if m.costReduced {
			p.Hashed = trace.HashedID(predicted)
		} else {
			p.ID, p.Hashed = trace.ID(predicted), trace.ID(predicted).Hash()
			if p.AltValid {
				p.Alt = trace.ID(c.alt)
			}
		}
	}

	actual := m.value(next)
	m.stats.Predictions++
	if p.Valid && predicted == actual {
		m.stats.Correct++
	} else {
		if !p.Valid {
			m.stats.Cold++
		}
		if p.AltValid {
			m.stats.AltPresent++
			if c.alt == actual {
				m.stats.AltCorrect++
			}
		}
	}
	if p.FromSecondary {
		m.stats.FromSecondary++
	}

	// A saturated secondary that was right keeps the correlated table
	// untouched (§3.3); read it before the secondary trains.
	filtered := secSaturated && s.val == actual
	if s != nil {
		switch {
		case !s.valid:
			*s = specSec{valid: true, val: actual}
		case s.val == actual:
			s.ctr = min(s.ctr+1, specSecMax)
		case s.ctr == 0:
			s.val = actual
		default:
			s.ctr = max(s.ctr-specSecDec, 0)
		}
	}
	if !filtered {
		switch {
		case !c.valid || m.hybrid && c.tag != tag:
			*c = specCorr{valid: true, tag: tag, val: actual}
		case c.val == actual:
			c.ctr = min(c.ctr+specInc, specCtrMax)
		case c.ctr == 0:
			// Replace the prediction; the displaced trace becomes the
			// alternate (§6).
			c.alt, c.val, c.altValid = c.val, actual, true
		default:
			c.ctr = max(c.ctr-specDec, 0)
			c.alt, c.altValid = actual, true
		}
	}

	m.advance(next)
	return p
}

// advance shifts the trace into the path history and applies the RHS
// (§3.4): a trace with calls pushes a copy of the history per call net
// of a terminal return; a trace that ends in a return and makes no
// call pops the stack and splices. A full stack drops its deepest copy.
func (m *specModel) advance(tr *trace.Trace) {
	copy(m.hist[1:], m.hist)
	m.hist[0] = specPos{id: tr.ID, hash: tr.Hash}
	if !m.rhs {
		return
	}
	net := tr.Calls
	if tr.EndsInRet {
		net--
	}
	switch {
	case net > 0:
		for i := 0; i < net; i++ {
			if len(m.stack) == specStackSize {
				m.stack = m.stack[1:]
			}
			m.stack = append(m.stack, append([]specPos(nil), m.hist...))
		}
	case tr.EndsInRet && tr.Calls == 0 && len(m.stack) > 0:
		saved := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		// "When there are five or fewer entries in the history, only the
		// most recent hashed identifier is kept; when there are more than
		// five entries the two most recent hashed identifiers are kept."
		keep := 1
		if len(m.hist) > 5 {
			keep = 2
		}
		copy(m.hist[keep:], saved)
	}
}

// specLimit is the instruction prefix each workload is replayed for.
// It keeps the whole cross inside the tier-1 budget.
const specLimit = 500_000

// TestKernelMatchesSpec drives the kernel and the model through the
// same trace stream and requires the same prediction every round and
// the same Stats at the end: basic, hybrid, hybrid with RHS and
// cost-reduced at depths 0–7 and index widths 10, 15 and 16, and the
// unbounded correlated, hybrid and hybrid-with-RHS predictors at depths
// 0–7, on each of the six benchmarks. Cost-reduced predictions carry no
// full ID, so only Hashed is compared there (the struct compare covers
// it: the kernel leaves ID and Alt zero, as the model does).
func TestKernelMatchesSpec(t *testing.T) {
	type variant struct {
		name                     string
		backend                  string
		hybrid, rhs, costReduced bool
	}
	bounded := []variant{
		{"basic", "basic", false, false, false},
		{"hybrid", "hybrid", true, false, false},
		{"hybrid+rhs", "hybrid", true, true, false},
		{"costreduced", "costreduced", true, false, true},
	}
	unbounded := []variant{
		{"unbounded", "unbounded", false, false, false},
		{"unbounded-hybrid", "unbounded", true, false, false},
		{"unbounded-hybrid+rhs", "unbounded", true, true, false},
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			traces := captureTraces(t, name, specLimit)
			preds := make([]Prediction, len(traces))
			check := func(label string, cfg Config, m *specModel) {
				p, err := New(cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				PredictBatch(p, traces, preds)
				for i := range traces {
					if want := m.step(&traces[i]); preds[i] != want {
						t.Errorf("%s: round %d predicted %+v, spec %+v", label, i, preds[i], want)
						return
					}
				}
				if got := p.Stats(); got != m.stats {
					t.Errorf("%s: stats %+v, spec %+v", label, got, m.stats)
				}
				if u, ok := p.(*Unbounded); ok {
					valid := 0
					for _, c := range m.ucorr {
						if c.valid {
							valid++
						}
					}
					if u.TableEntries() != valid {
						t.Errorf("%s: %d table entries, spec %d", label, u.TableEntries(), valid)
					}
				}
			}
			for depth := 0; depth < history.MaxSize; depth++ {
				for _, v := range bounded {
					for _, bits := range []int{10, 15, 16} {
						cfg := Config{Backend: v.backend, Depth: depth, IndexBits: bits, UseRHS: v.rhs}
						m := newSpecBounded(history.StandardDOLC(bits, depth), v.hybrid, v.rhs, v.costReduced)
						check(fmt.Sprintf("%s d%d i%d", v.name, depth, bits), cfg, m)
					}
				}
				for _, v := range unbounded {
					cfg := Config{Backend: v.backend, Depth: depth, Hybrid: v.hybrid, UseRHS: v.rhs}
					check(fmt.Sprintf("%s d%d", v.name, depth), cfg, newSpecUnbounded(depth, v.hybrid, v.rhs))
				}
			}
		})
	}
}
