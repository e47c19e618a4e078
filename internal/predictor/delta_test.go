package predictor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pathtrace/internal/faults"
	"pathtrace/internal/trace"
)

// deltaConfigs are the configurations the delta tests walk: every
// backend, the paper ones with and without an RHS and with a fault
// injector whose faults land on both tables. Small tables make entries
// get replaced as well as added. Fresh per call: injectors are
// stateful.
func deltaConfigs() map[string]Config {
	return map[string]Config{
		"basic":         {Backend: "basic", Depth: 3, IndexBits: 8},
		"hybrid":        {Backend: "hybrid", Depth: 5, IndexBits: 8},
		"hybrid+rhs":    {Backend: "hybrid", Depth: 7, IndexBits: 8, UseRHS: true},
		"costreduced":   {Backend: "costreduced", Depth: 7, IndexBits: 8, UseRHS: true},
		"basic+faults":  {Backend: "basic", Depth: 3, IndexBits: 8, Faults: faults.New(faults.Config{Seed: 3, Table: 0.05, Bits: 2})},
		"hybrid+faults": {Backend: "hybrid", Depth: 7, IndexBits: 8, UseRHS: true, Faults: faults.New(faults.Config{Seed: 7, Table: 0.05, Secondary: 0.05, History: 0.02, Bits: 2})},
		"hybrid+stuck":  {Backend: "hybrid", Depth: 7, IndexBits: 8, UseRHS: true, Faults: faults.New(faults.Config{Seed: 9, StuckZero: true, Table: 0.01})},
		// Tables smaller than one 64-slot bitmap word.
		"basic+tiny":  {Backend: "basic", Depth: 2, IndexBits: 1},
		"hybrid+tiny": {Backend: "hybrid", Depth: 3, IndexBits: 5, SecondaryBits: 2, UseRHS: true},
		"tage":        {Backend: "tage", Depth: 7, IndexBits: 8, SecondaryBits: 6},
		// Tables that grow, which drops the mark.
		"unbounded":        {Backend: "unbounded", Depth: 3},
		"unbounded-hybrid": {Backend: "unbounded", Depth: 7, Hybrid: true, UseRHS: true},
	}
}

// applyPlan is the reference splice applier: it builds the spliced
// section in a new slice.
func applyPlan(state []byte, plan []Splice) []byte { return appendPlan(nil, state, plan) }

// appendPlan appends the spliced section to out.
func appendPlan(out, state []byte, plan []Splice) []byte {
	prev := 0
	for _, s := range plan {
		out = append(out, state[prev:s.Off]...)
		out = append(out, s.Lit...)
		prev = s.Off + s.Del
	}
	return append(out, state[prev:]...)
}

// driveStep runs rounds on p through one of the three training paths by
// step: the scalar Predict/Update, the batch loop, and (on a hybrid)
// Lookup/CommitUpdate/Advance. Each records the slots it changes.
func driveStep(p NextTracePredictor, traces []*trace.Trace, step int) {
	h, isHybrid := p.(*Hybrid)
	switch {
	case step%3 == 1:
		batch := make([]trace.Trace, len(traces))
		for i, tc := range traces {
			batch[i] = *tc
		}
		UpdateBatch(p, batch)
	case step%3 == 2 && isHybrid:
		for _, tc := range traces {
			_, tok := h.Lookup()
			h.CommitUpdate(&tok, tc)
			h.Advance(tc)
		}
	default:
		for _, tc := range traces {
			p.Predict()
			p.Update(tc)
		}
	}
}

// TestDeltaMergeEqualsSave: a held section kept current by merging each
// delta equals the full state saved at the same point, after every
// step, from a cold table (deltas add entries) to a full one (deltas
// replace them), including steps with no rounds at all, whichever
// training path (driveStep) the rounds take, on a random stream and on
// one the predictors learn (loopStream).
func TestDeltaMergeEqualsSave(t *testing.T) {
	for name, cfg := range deltaConfigs() {
		t.Run(name, func(t *testing.T) {
			for _, kind := range []string{"random", "loop"} {
				t.Run(kind, func(t *testing.T) {
					b := mustBackend(t, cfg)
					p := MustNew(cfg)
					if _, err := b.AppendDelta(nil, p); !errors.Is(err, ErrNoMark) {
						t.Fatalf("AppendDelta before Mark = %v, want ErrNoMark", err)
					}
					held, err := b.Save(p)
					if err != nil {
						t.Fatal(err)
					}
					if err := b.Mark(p); err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(1))
					stream := randStream(13, 6000)
					if kind == "loop" {
						stream = loopStream(13, 6000)
					}
					var plan []Splice
					var lits [MergeLits]byte
					var x MergeIndex
					for step := 0; len(stream) > 0; step++ {
						n := min(rng.Intn(300), len(stream))
						driveStep(p, stream[:n], step)
						stream = stream[n:]
						delta, err := b.AppendDelta(nil, p)
						if u, ok := p.(*Unbounded); ok && errors.Is(err, ErrNoMark) {
							// A grow dropped the mark: the holder takes the
							// whole state again.
							if len(u.corr.slots) == ubInitSlots && len(u.sec.slots) <= ubInitSlots {
								t.Fatalf("step %d: mark dropped without a grow", step)
							}
							if held, err = b.Save(p); err == nil {
								err = b.Mark(p)
							}
							if err != nil {
								t.Fatal(err)
							}
							x.Reset()
							continue
						}
						if err != nil {
							t.Fatalf("step %d: AppendDelta: %v", step, err)
						}
						if plan, err = b.MergeDelta(plan[:0], &lits, &x, held, delta); err != nil {
							t.Fatalf("step %d: MergeDelta: %v", step, err)
						}
						held = applyPlan(held, plan)
						want, err := b.Save(p)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(held, want) {
							t.Fatalf("step %d (%d rounds, %d-byte delta): merged section (%d bytes) differs from Save (%d bytes)",
								step, n, len(delta), len(held), len(want))
						}
					}
				})
			}
		})
	}
}

// TestDeltaShipsOnlyChangedEntries: a delta carries exactly the entries
// whose bytes differ from the held section's: none that its rounds left
// as they were, and every one they changed. Each delta follows one
// round, so no entry can change and change back between two deltas;
// the rounds rotate through the three training paths (driveStep), on a
// random stream and on one the predictors learn, for every backend.
func TestDeltaShipsOnlyChangedEntries(t *testing.T) {
	for name, cfg := range deltaConfigs() {
		t.Run(name, func(t *testing.T) {
			for _, kind := range []string{"random", "loop"} {
				t.Run(kind, func(t *testing.T) {
					b := mustBackend(t, cfg)
					p := MustNew(cfg)
					held, err := b.Save(p)
					if err == nil {
						err = b.Mark(p)
					}
					if err != nil {
						t.Fatal(err)
					}
					stream := randStream(17, 2000)
					if kind == "loop" {
						// Long enough for TAGE's useful counters to
						// rise and decay.
						stream = loopStream(17, 6000)
					}
					shipped := 0
					for step, tc := range stream {
						driveStep(p, []*trace.Trace{tc}, step)
						delta, err := b.AppendDelta(nil, p)
						now, serr := b.Save(p)
						if serr != nil {
							t.Fatal(serr)
						}
						if _, ok := p.(*Unbounded); ok && errors.Is(err, ErrNoMark) {
							held = now // a grow dropped the mark
							if err := b.Mark(p); err != nil {
								t.Fatal(err)
							}
							continue
						}
						if err != nil {
							t.Fatalf("step %d: AppendDelta: %v", step, err)
						}
						l, err := b.head(held)
						if err != nil {
							t.Fatal(err)
						}
						was, is, got := sectionRecords(t, &l, held, l.head), sectionRecords(t, &l, now, l.head), sectionRecords(t, &l, delta, l.key)
						for tb := range l.n {
							want := changedRecords(was[tb], is[tb], l.tables[tb].size)
							if !bytes.Equal(got[tb], want) {
								t.Fatalf("step %d, table %d: delta ships %d bytes of records, %d bytes differ from the held section",
									step, tb, len(got[tb]), len(want))
							}
							shipped += len(got[tb]) / l.tables[tb].size
						}
						held = now
					}
					if shipped == 0 {
						t.Fatal("no delta shipped an entry")
					}
					t.Logf("%d entries shipped over %d rounds", shipped, len(stream))
				})
			}
		})
	}
}

// sectionRecords returns the records of each table of a state section
// or delta of layout l whose mutable part starts at off.
func sectionRecords(t *testing.T, l *layout, b []byte, off int) (recs [maxTables][]byte) {
	t.Helper()
	r := &stateReader{b: b, off: off}
	r.skipMutable(l)
	for tb := range l.n {
		size := l.tables[tb].size
		recs[tb] = r.take(r.count(size) * size)
	}
	if r.err != nil || r.off != len(b) {
		t.Fatalf("section of %d bytes: %v at offset %d", len(b), r.err, r.off)
	}
	return recs
}

// changedRecords returns the records of is, a table's records, that
// were not in was, the same table's records earlier: the entries of
// slots was held with other bytes or not at all.
func changedRecords(was, is []byte, size int) []byte {
	var out []byte
	for len(is) > 0 {
		i := binary.LittleEndian.Uint32(is)
		for len(was) > 0 && binary.LittleEndian.Uint32(was) < i {
			was = was[size:]
		}
		if len(was) == 0 || !bytes.Equal(was[:size], is[:size]) {
			out = append(out, is[:size]...)
		}
		is = is[size:]
	}
	return out
}

// loopStream loops a random pattern of 61 traces with one trace in
// eight replaced at random, so the predictors learn it and still miss:
// TAGE's useful counters rise, and on a miss where every longer table's
// entry is still useful they all decay.
func loopStream(seed int64, n int) []*trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	pattern, noise := randStream(seed, 61), randStream(seed+1, n)
	out := make([]*trace.Trace, n)
	for i := range out {
		if out[i] = pattern[i%len(pattern)]; rng.Intn(8) == 0 {
			out[i] = noise[i]
		}
	}
	return out
}

// TestUnmarkedPredictorTracksNothing: a predictor that is saved but
// never marked keeps change tracking off, so its rounds pay only the
// nil check.
func TestUnmarkedPredictorTracksNothing(t *testing.T) {
	for name, cfg := range deltaConfigs() {
		p := MustNew(cfg)
		b := mustBackend(t, cfg)
		for _, tc := range randStream(3, 500) {
			p.Predict()
			p.Update(tc)
		}
		if _, err := b.Save(p); err != nil {
			t.Fatal(err)
		}
		if *p.(sectioned).changes() != nil {
			t.Errorf("%s: change tracking on without a mark", name)
		}
	}
}

// TestMergeDeltaRejects: MergeDelta refuses deltas that do not fit the
// held section — another variant, malformed entries, wrong lengths —
// with ErrBadState.
func TestMergeDeltaRejects(t *testing.T) {
	cfg := Config{Backend: "hybrid", Depth: 7, IndexBits: 8, UseRHS: true}
	b := mustBackend(t, cfg)
	p := MustNew(cfg)
	for _, tc := range randStream(5, 300) {
		p.Predict()
		p.Update(tc)
	}
	held, _ := b.Save(p)
	b.Mark(p)
	for _, tc := range randStream(6, 100) {
		p.Predict()
		p.Update(tc)
	}
	delta, err := b.AppendDelta(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the delta's first correlated entry.
	l, _ := paperHeadLayout(held)
	r := &stateReader{b: delta, off: 2}
	r.skipMutable(&l)
	corr := r.off + 4
	if binary.LittleEndian.Uint32(delta[r.off:]) < 2 {
		t.Fatal("delta has fewer than two correlated entries")
	}
	le := binary.LittleEndian
	mutations := map[string]func(d []byte) []byte{
		"kind":           func(d []byte) []byte { d[0] = paperKindBasic; return d },
		"flags":          func(d []byte) []byte { d[1] ^= paperFlagCostReduced; return d },
		"index range":    func(d []byte) []byte { le.PutUint32(d[corr:], 1<<20); return d },
		"not ascending":  func(d []byte) []byte { copy(d[corr+paperCorrEntryBytes:], d[corr:corr+4]); return d },
		"counter":        func(d []byte) []byte { d[corr+22] = 0xFF; return d },
		"entry flag":     func(d []byte) []byte { d[corr+23] = 2; return d },
		"history fill":   func(d []byte) []byte { d[2+statsBytes+1] = 99; return d },
		"truncated":      func(d []byte) []byte { return d[:len(d)-1] },
		"trailing byte":  func(d []byte) []byte { return append(d, 0) },
		"empty":          func(d []byte) []byte { return nil },
		"count overflow": func(d []byte) []byte { le.PutUint32(d[corr-4:], 1<<30); return d },
	}
	for name, mut := range mutations {
		d := mut(bytes.Clone(delta))
		if _, err := b.MergeDelta(nil, new([MergeLits]byte), new(MergeIndex), held, d); !errors.Is(err, ErrBadState) {
			t.Errorf("%s: MergeDelta = %v, want ErrBadState", name, err)
		}
	}
	if _, err := b.MergeDelta(nil, new([MergeLits]byte), new(MergeIndex), held[:len(held)-1], delta); !errors.Is(err, ErrBadState) {
		t.Errorf("truncated held section: MergeDelta = %v, want ErrBadState", err)
	}
}

// TestMergeDeltaWordEdges: entries at the edges of the index's bitmap
// words (0, 63, 64 and the last slot) merge into their places, whether
// they replace a held entry or go in beside one, over successive deltas
// against one kept MergeIndex.
func TestMergeDeltaWordEdges(t *testing.T) {
	cfg := Config{Backend: "hybrid", Depth: 3, IndexBits: 8, SecondaryBits: 7}
	b := mustBackend(t, cfg)
	p := MustNew(cfg).(*Hybrid)
	// put writes valid entries at the given slots, as rounds would.
	put := func(corr, sec []uint32, val uint64) {
		for _, i := range corr {
			p.corr[i] = corrEntry{w: withCtr(val|entValid, 1)}
			if p.chg != nil {
				p.chg.t[0].add(i)
			}
		}
		for _, i := range sec {
			p.sec[i] = withCtr(val|entValid, 1)
			if p.chg != nil {
				p.chg.t[1].add(i)
			}
		}
	}
	put([]uint32{1, 63, 65, 200}, []uint32{0, 64}, 7)
	held, err := b.Save(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Mark(p); err != nil {
		t.Fatal(err)
	}
	steps := []struct{ corr, sec []uint32 }{
		{[]uint32{0, 63, 64, 255}, []uint32{0, 63, 64, 127}},
		{[]uint32{0, 1, 62, 65, 254, 255}, []uint32{1, 126, 127}},
		{nil, nil},
		{[]uint32{2, 66, 127, 128, 191, 192}, []uint32{62, 65}},
	}
	var x MergeIndex
	var lits [MergeLits]byte
	for step, st := range steps {
		put(st.corr, st.sec, uint64(step+2))
		delta, err := b.AppendDelta(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := b.MergeDelta(nil, &lits, &x, held, delta)
		if err != nil {
			t.Fatalf("step %d: MergeDelta: %v", step, err)
		}
		held = applyPlan(held, plan)
		if want, _ := b.Save(p); !bytes.Equal(held, want) {
			t.Fatalf("step %d: merged section differs from Save", step)
		}
	}
}

// TestMergeDeltaIndexOutOfStep: an index that does not describe the
// held section (here one kept from another section) fails the merge
// with ErrBadState at the first entry it misplaces, rather than
// splicing an entry to a wrong place.
func TestMergeDeltaIndexOutOfStep(t *testing.T) {
	cfg := Config{Backend: "hybrid", Depth: 3, IndexBits: 8}
	b := mustBackend(t, cfg)
	full, empty := MustNew(cfg).(*Hybrid), MustNew(cfg).(*Hybrid)
	full.corr[5] = corrEntry{w: withCtr(3|entValid, 1)}
	fullState, _ := b.Save(full)
	emptyState, _ := b.Save(empty)
	b.Mark(empty)
	empty.corr[5] = corrEntry{w: withCtr(4|entValid, 1)}
	empty.chg.t[0].add(5)
	delta, err := b.AppendDelta(nil, empty)
	if err != nil {
		t.Fatal(err)
	}

	var x MergeIndex
	var lits [MergeLits]byte
	if _, err := b.MergeDelta(nil, &lits, &x, fullState, delta); err != nil {
		t.Fatalf("merge into the section the delta does not belong to: %v", err)
	}
	// x now marks slot 5 held; emptyState holds no entry there.
	if _, err := b.MergeDelta(nil, &lits, &x, emptyState, delta); !errors.Is(err, ErrBadState) {
		t.Fatalf("MergeDelta with a stale index = %v, want ErrBadState", err)
	}
	x.Reset()
	plan, err := b.MergeDelta(nil, &lits, &x, emptyState, delta)
	if err != nil {
		t.Fatalf("MergeDelta after Reset: %v", err)
	}
	if want, _ := b.Save(empty); !bytes.Equal(applyPlan(emptyState, plan), want) {
		t.Fatal("merge after Reset differs from Save")
	}
}

// TestMergeDeltaRefusesGeometry: a held section claiming tables larger
// than any Config may build is refused before its index is sized.
func TestMergeDeltaRefusesGeometry(t *testing.T) {
	cfg := Config{Backend: "hybrid", Depth: 3, IndexBits: 8}
	b := mustBackend(t, cfg)
	p := MustNew(cfg)
	held, _ := b.Save(p)
	b.Mark(p)
	delta, _ := b.AppendDelta(nil, p)
	for _, c := range []struct {
		at   int // offset of the geometry byte: kind, flags, depth, index bits, secondary bits
		bits byte
	}{{3, 27}, {3, 0}, {4, 21}, {4, 0}} {
		bad := bytes.Clone(held)
		bad[c.at] = c.bits
		var x MergeIndex
		if _, err := b.MergeDelta(nil, new([MergeLits]byte), &x, bad, delta); !errors.Is(err, ErrBadState) {
			t.Errorf("byte %d = %d: MergeDelta = %v, want ErrBadState", c.at, c.bits, err)
		}
		if x.built || x.t[0].words != nil || x.t[1].words != nil {
			t.Errorf("byte %d = %d: refused section left an index", c.at, c.bits)
		}
	}
}

// TestMergeDeltaRejectsBadHeld: building the index refuses, with
// ErrBadState and no panic, a held section whose entries do not ascend
// strictly within their table, and leaves the index unbuilt.
func TestMergeDeltaRejectsBadHeld(t *testing.T) {
	cfg := Config{Backend: "hybrid", Depth: 7, IndexBits: 8, UseRHS: true}
	b := mustBackend(t, cfg)
	p := MustNew(cfg)
	for _, tc := range randStream(5, 300) {
		p.Predict()
		p.Update(tc)
	}
	held, _ := b.Save(p)
	b.Mark(p)
	delta, err := b.AppendDelta(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := paperHeadLayout(held)
	r := &stateReader{b: held, off: l.head}
	r.skipMutable(&l)
	corr := r.off + 4
	le := binary.LittleEndian
	for name, mut := range map[string]func(h []byte){
		"index range":   func(h []byte) { le.PutUint32(h[corr:], 1<<20) },
		"table end":     func(h []byte) { le.PutUint32(h[corr:], 1<<cfg.IndexBits) },
		"not ascending": func(h []byte) { copy(h[corr+paperCorrEntryBytes:], h[corr:corr+4]) },
	} {
		h := bytes.Clone(held)
		mut(h)
		var x MergeIndex
		if _, err := b.MergeDelta(nil, new([MergeLits]byte), &x, h, delta); !errors.Is(err, ErrBadState) {
			t.Errorf("%s: MergeDelta = %v, want ErrBadState", name, err)
		}
		if x.built {
			t.Errorf("%s: refused section left a built index", name)
		}
	}
}

// TestMergeDeltaBlockEdges: with a table of several 4096-slot rank
// blocks, entries at the blocks' edges and past empty blocks merge into
// their places, so a rank that adds whole blocks' counts and then walks
// words within one lands where a plain popcount would.
func TestMergeDeltaBlockEdges(t *testing.T) {
	cfg := Config{Backend: "basic", Depth: 3, IndexBits: 14}
	b := mustBackend(t, cfg)
	p := MustNew(cfg).(*Hybrid)
	put := func(slots []uint32, val uint64) {
		for _, i := range slots {
			p.corr[i] = corrEntry{w: withCtr(val|entValid, 1)}
			if p.chg != nil {
				p.chg.t[0].add(i)
			}
		}
	}
	put([]uint32{0, 4095, 4097, 12288, 16383}, 7)
	held, err := b.Save(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Mark(p); err != nil {
		t.Fatal(err)
	}
	var x MergeIndex
	var lits [MergeLits]byte
	for step, slots := range [][]uint32{
		{4095, 4096, 8191, 8192, 16383},
		{1, 4094, 4097, 12287, 12288, 16382},
		{2, 63, 64, 4159, 8255, 16320},
		{100, 5000, 9000, 13000},
	} {
		put(slots, uint64(step+2))
		delta, err := b.AppendDelta(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := b.MergeDelta(nil, &lits, &x, held, delta)
		if err != nil {
			t.Fatalf("step %d: MergeDelta: %v", step, err)
		}
		held = applyPlan(held, plan)
		if want, _ := b.Save(p); !bytes.Equal(held, want) {
			t.Fatalf("step %d: merged section differs from Save", step)
		}
	}
}

// BenchmarkDeltaRound times what one durable ack adds up to on the
// paper codec: one 256-trace round on a marked hybrid+RHS predictor,
// its AppendDelta, and the MergeDelta plan against a held section, at
// three table sizes, the plan applied to the held section by the
// reference applier into a second buffer. The rounds cycle through a
// 1024-trace pool the predictor learned before the held section was
// saved, so every delta replaces held entries and the rounds' working
// set fits in cache at every size: what grows with the table is only
// the delta's own walk at both ends.
func BenchmarkDeltaRound(b *testing.B) {
	for _, bits := range []int{16, 20, 22} {
		b.Run(fmt.Sprintf("bits%d", bits), func(b *testing.B) {
			cfg := Config{Backend: "hybrid", Depth: 7, IndexBits: bits, UseRHS: true}
			be := mustBackend(b, cfg)
			p := MustNew(cfg)
			pool := make([]trace.Trace, 1024)
			for i, tc := range randStream(3, len(pool)) {
				pool[i] = *tc
			}
			const batch = 256
			next := 0
			round := func() {
				PredictBatch(p, pool[next:next+batch], nil)
				next = (next + batch) % len(pool)
			}
			for range 8 * len(pool) / batch {
				round()
			}
			held, err := be.Save(p)
			if err != nil {
				b.Fatal(err)
			}
			if err := be.Mark(p); err != nil {
				b.Fatal(err)
			}
			var (
				delta []byte
				plan  []Splice
				spare []byte
				lits  [MergeLits]byte
				x     MergeIndex
			)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
				if delta, err = be.AppendDelta(delta[:0], p); err != nil {
					b.Fatal(err)
				}
				if plan, err = be.MergeDelta(plan[:0], &lits, &x, held, delta); err != nil {
					b.Fatal(err)
				}
				held, spare = appendPlan(spare[:0], held, plan), held
			}
		})
	}
}
