package predictor

import (
	"math/rand"
	"testing"

	"pathtrace/internal/trace"
)

// tr builds a minimal trace with a given start PC and branch outcomes.
func tr(pc uint32, outs uint8) *trace.Trace {
	id := trace.MakeID(pc, outs)
	return &trace.Trace{ID: id, Hash: id.Hash(), StartPC: pc}
}

// callTr marks a trace as containing n calls.
func callTr(pc uint32, calls int) *trace.Trace {
	t := tr(pc, 0)
	t.Calls = calls
	return t
}

// retTr marks a trace as ending in a return.
func retTr(pc uint32) *trace.Trace {
	t := tr(pc, 0)
	t.EndsInRet = true
	return t
}

// drive runs the immediate-update protocol over a repeating sequence,
// returning stats for the final `measure` predictions.
func drive(p NextTracePredictor, seq []*trace.Trace, rounds, measureRounds int) Stats {
	var warm Stats
	for r := 0; r < rounds; r++ {
		if r == rounds-measureRounds {
			warm = p.Stats()
		}
		for _, t := range seq {
			p.Predict()
			p.Update(t)
		}
	}
	final := p.Stats()
	return Stats{
		Predictions: final.Predictions - warm.Predictions,
		Correct:     final.Correct - warm.Correct,
	}
}

func TestBasicLearnsDeterministicSequence(t *testing.T) {
	// Period-4 sequence A B A C: every successor is determined by the
	// previous two traces, so depth>=1 must converge to 100%.
	seq := []*trace.Trace{tr(0x1000, 0), tr(0x2000, 1), tr(0x1000, 0), tr(0x3000, 2)}
	p := MustNew(Config{Depth: 1, IndexBits: 14})
	st := drive(p, seq, 50, 10)
	if st.Correct != st.Predictions {
		t.Errorf("steady state: %d/%d correct", st.Correct, st.Predictions)
	}
}

func TestDepthZeroCannotDisambiguate(t *testing.T) {
	// With depth 0, trace A's successor alternates B/C and cannot be
	// predicted reliably.
	seq := []*trace.Trace{tr(0x1000, 0), tr(0x2000, 1), tr(0x1000, 0), tr(0x3000, 2)}
	p := MustNew(Config{Depth: 0, IndexBits: 14})
	st := drive(p, seq, 50, 10)
	if st.Correct == st.Predictions {
		t.Errorf("depth 0 impossibly predicted alternating successor perfectly (%d/%d)",
			st.Correct, st.Predictions)
	}
}

func TestHybridLearnsDeterministicSequence(t *testing.T) {
	seq := []*trace.Trace{tr(0x1000, 0), tr(0x2000, 1), tr(0x1000, 0), tr(0x3000, 2)}
	for _, rhs := range []bool{false, true} {
		p := MustNew(Config{Depth: 2, IndexBits: 14, Hybrid: true, UseRHS: rhs})
		st := drive(p, seq, 50, 10)
		if st.Correct != st.Predictions {
			t.Errorf("rhs=%v steady state: %d/%d correct", rhs, st.Correct, st.Predictions)
		}
	}
}

func TestCounterReplaceOnZero(t *testing.T) {
	// White-box: correlated counter policy is inc-1/dec-2 with
	// replacement only at zero. Depth 0, so the table index is a
	// function of the most recent trace's hash alone.
	p := MustNew(Config{Depth: 0, IndexBits: 10}).(*Hybrid)
	a, b := tr(0x1004, 0), tr(0x1008, 0)

	// Locate the entry for the path [a].
	h := p.hist
	h.Push(a.Hash)
	idxA := p.cfg.DOLC.IndexOf(&h)

	// Reinforce [a] -> a four times (a, a, a, a, a stream).
	for i := 0; i < 5; i++ {
		p.Predict()
		p.Update(a)
	}
	// ent reads a packed entry back into one comparable view.
	type ent struct {
		valid, altValid bool
		val, alt        uint64
		ctr             uint8
	}
	at := func(i uint32) ent {
		e := p.corr[i]
		return ent{
			valid: e.w&entValid != 0, altValid: e.w&entAltValid != 0,
			val: e.w & entValMask, alt: e.alt, ctr: entCtr(e.w),
		}
	}
	if e := at(idxA); !e.valid || e.val != uint64(a.ID) || e.ctr != 3 {
		t.Fatalf("entry = %+v, want A with saturated ctr 3", e)
	}

	// Now alternate a, b: each (a -> b) observation decrements [a]'s
	// counter by 2 until replacement at zero.
	step := func() ent {
		p.Predict()
		p.Update(b) // [a] -> b: wrong w.r.t. stored a
		p.Predict()
		p.Update(a) // [b] -> a: trains the other entry
		return at(idxA)
	}
	if e := step(); e.val != uint64(a.ID) || e.ctr != 1 || !e.altValid || e.alt != uint64(b.ID) {
		t.Fatalf("after 1 miss entry = %+v", e)
	}
	if e := step(); e.val != uint64(a.ID) || e.ctr != 0 {
		t.Fatalf("after 2 misses entry = %+v", e)
	}
	if e := step(); e.val != uint64(b.ID) || e.alt != uint64(a.ID) || !e.altValid {
		t.Fatalf("after 3 misses entry = %+v (want replacement)", e)
	}
}

func TestHybridTagSelectsSecondary(t *testing.T) {
	p, err := NewHybrid(Config{Depth: 3, IndexBits: 14})
	if err != nil {
		t.Fatal(err)
	}
	a, b := tr(0x1004, 0), tr(0x1008, 0)
	// Train: A follows B and B follows A, repeatedly.
	for i := 0; i < 20; i++ {
		p.Predict()
		p.Update(a)
		p.Predict()
		p.Update(b)
	}
	pred, tok := p.Lookup()
	if !pred.Valid {
		t.Fatal("no prediction after training")
	}
	if pred.ID != a.ID {
		t.Errorf("predicted %v, want %v", pred.ID, a.ID)
	}
	// The secondary must know B's successor too.
	if w := p.sec[tok.SecIdx]; w&entValid == 0 || w&entValMask != uint64(a.ID) {
		t.Errorf("secondary: word %#x", w)
	}
}

func TestSecondaryFilterSuppressesCorrelatedUpdate(t *testing.T) {
	// Single-successor behaviour: X is always followed by Y, approached
	// via many different paths. With the filter, once the secondary
	// saturates the correlated table stops being written.
	mk := func(filter bool) *Hybrid {
		p, err := NewHybrid(Config{
			Depth: 3, IndexBits: 12, SecondaryFilter: boolPtr(filter)})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	run := func(p *Hybrid) int {
		x, y := tr(0x1010, 0), tr(0x1020, 0)
		// Phase 1: one fixed path saturates the secondary's X -> Y entry.
		pre0 := tr(0x1030, 0)
		for i := 0; i < 30; i++ {
			for _, t := range []*trace.Trace{pre0, x, y} {
				p.Predict()
				p.Update(t)
			}
		}
		// Phase 2: many fresh paths reach X. With the filter, the
		// saturated-and-correct secondary suppresses correlated writes
		// for these paths; without it every path claims an entry.
		for i := 0; i < 64; i++ {
			pre := tr(0x1100+uint32(i)*4, 0)
			for _, t := range []*trace.Trace{pre, x, y} {
				p.Predict()
				p.Update(t)
			}
		}
		n, _ := p.validEntries()
		return n
	}
	withFilter := run(mk(true))
	without := run(mk(false))
	if withFilter >= without {
		t.Errorf("correlated entries: filter=%d, no-filter=%d; filter should reduce pollution",
			withFilter, without)
	}
}

func TestSaturatedSecondaryOverridesCorrelated(t *testing.T) {
	p, err := NewHybrid(Config{Depth: 1, IndexBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	x, y := tr(0x1010, 0), tr(0x1020, 0)
	for i := 0; i < 40; i++ {
		p.Predict()
		p.Update(x)
		p.Predict()
		p.Update(y)
	}
	_, tok := p.Lookup()
	if !tok.secSaturated {
		t.Fatal("secondary not saturated after 40 consistent rounds")
	}
	pred, _ := p.Lookup()
	if !pred.FromSecondary {
		t.Error("saturated secondary did not supply the prediction")
	}
}

func TestRHSRecoversPreCallContext(t *testing.T) {
	// Two call sites invoke the same long subroutine; the trace after
	// the return depends on the call site. The subroutine is longer than
	// the history, so without the RHS the post-return prediction cannot
	// be disambiguated.
	sub := make([]*trace.Trace, 10)
	for i := range sub {
		sub[i] = tr(0x9000+uint32(i)*0x40, 0)
	}
	subRet := retTr(0xa000)
	seq := []*trace.Trace{}
	addCall := func(site uint32, post uint32) {
		seq = append(seq, callTr(site, 1))
		seq = append(seq, sub...)
		seq = append(seq, subRet, tr(post, 0))
	}
	addCall(0x1004, 0x1104)
	addCall(0x1008, 0x1208)

	mk := func(rhs bool) Stats {
		p := MustNew(Config{Depth: 7, IndexBits: 15, Hybrid: true, UseRHS: rhs})
		return drive(p, seq, 60, 10)
	}
	with := mk(true)
	without := mk(false)
	if with.Correct != with.Predictions {
		t.Errorf("with RHS: %d/%d in steady state, want perfect", with.Correct, with.Predictions)
	}
	if without.Correct >= without.Predictions {
		t.Errorf("without RHS impossibly perfect: %d/%d", without.Correct, without.Predictions)
	}
}

func TestAlternatePredictionCatchesSecondLikely(t *testing.T) {
	// Successor of X alternates between Y and Z unpredictably for a
	// depth-0 view; the alternate should hold the other candidate.
	p := MustNew(Config{Depth: 0, IndexBits: 12})
	x, y, z := tr(0x1004, 0), tr(0x1008, 0), tr(0x100c, 0)
	rng := rand.New(rand.NewSource(9))
	var primaryWrong, altRight uint64
	for i := 0; i < 2000; i++ {
		p.Predict()
		p.Update(x)
		pred := p.Predict()
		next := y
		if rng.Intn(2) == 0 {
			next = z
		}
		if pred.Valid && pred.ID != next.ID {
			primaryWrong++
			if pred.AltValid && pred.Alt == next.ID {
				altRight++
			}
		}
		p.Update(next)
	}
	if primaryWrong == 0 {
		t.Fatal("primary never wrong on random successor")
	}
	if float64(altRight)/float64(primaryWrong) < 0.5 {
		t.Errorf("alternate caught only %d of %d primary misses", altRight, primaryWrong)
	}
}

// mustUnbounded builds the unbounded backend from cfg.
func mustUnbounded(t *testing.T, cfg Config) *Unbounded {
	t.Helper()
	cfg.Backend = "unbounded"
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.(*Unbounded)
}

func TestUnboundedNoAliasing(t *testing.T) {
	// Feed many distinct deterministic contexts; an unbounded hybrid
	// must reach perfection regardless of how many paths exist.
	u := mustUnbounded(t, Config{Depth: 1, Hybrid: true})
	var seq []*trace.Trace
	for i := 0; i < 64; i++ {
		seq = append(seq, tr(0x1000+uint32(i)*0x10, 0), tr(0x20000+uint32(i)*0x10, 0))
	}
	st := drive(u, seq, 30, 5)
	if st.Correct != st.Predictions {
		t.Errorf("unbounded steady state %d/%d", st.Correct, st.Predictions)
	}
	if u.TableEntries() == 0 {
		t.Error("no entries learned")
	}
}

func TestUnboundedMatchesHybridSemantics(t *testing.T) {
	// On a stream small enough that the bounded tables never alias, the
	// bounded hybrid and unbounded hybrid must agree in steady state.
	seq := []*trace.Trace{tr(0x1000, 0), tr(0x2000, 1), tr(0x1000, 0), tr(0x3000, 2), tr(0x4000, 3)}
	b := MustNew(Config{Depth: 2, IndexBits: 16, Hybrid: true})
	u := mustUnbounded(t, Config{Depth: 2, Hybrid: true})
	sb := drive(b, seq, 40, 10)
	su := drive(u, seq, 40, 10)
	if sb.Correct != sb.Predictions || su.Correct != su.Predictions {
		t.Errorf("bounded %d/%d, unbounded %d/%d; both should be perfect",
			sb.Correct, sb.Predictions, su.Correct, su.Predictions)
	}
}

func TestUnboundedRHS(t *testing.T) {
	sub := make([]*trace.Trace, 10)
	for i := range sub {
		sub[i] = tr(0x9000+uint32(i)*0x40, 0)
	}
	subRet := retTr(0xa000)
	var seq []*trace.Trace
	for _, s := range []struct{ site, post uint32 }{{0x1004, 0x1104}, {0x1008, 0x1208}} {
		seq = append(seq, callTr(s.site, 1))
		seq = append(seq, sub...)
		seq = append(seq, subRet, tr(s.post, 0))
	}
	with := drive(mustUnbounded(t, Config{Depth: 7, Hybrid: true, UseRHS: true}), seq, 60, 10)
	without := drive(mustUnbounded(t, Config{Depth: 7, Hybrid: true}), seq, 60, 10)
	if with.Correct != with.Predictions {
		t.Errorf("unbounded with RHS: %d/%d", with.Correct, with.Predictions)
	}
	if without.Correct >= without.Predictions {
		t.Errorf("unbounded without RHS impossibly perfect")
	}
}

func TestCostReducedTracksFullAccuracy(t *testing.T) {
	// The cost-reduced predictor stores 10-bit hashed IDs; on the same
	// stream its accuracy must be at least the full predictor's (hash
	// collisions can only turn misses into spurious hits).
	mkSeq := func() []*trace.Trace {
		rng := rand.New(rand.NewSource(17))
		var seq []*trace.Trace
		for i := 0; i < 40; i++ {
			seq = append(seq, tr(0x1000+uint32(rng.Intn(4096))*4, uint8(rng.Intn(64))))
		}
		return seq
	}
	full := MustNew(Config{Depth: 3, IndexBits: 14, Hybrid: true})
	red := MustNew(Config{Depth: 3, IndexBits: 14, Hybrid: true, CostReduced: true})
	sf := drive(full, mkSeq(), 30, 10)
	sr := drive(red, mkSeq(), 30, 10)
	if sr.Correct < sf.Correct {
		t.Errorf("cost-reduced correct %d < full %d", sr.Correct, sf.Correct)
	}
	// And it must not be wildly optimistic on this small stream.
	if sr.Correct > sf.Correct+sf.Predictions/20 {
		t.Errorf("cost-reduced suspiciously optimistic: %d vs %d of %d",
			sr.Correct, sf.Correct, sf.Predictions)
	}
}

func TestStatsArithmetic(t *testing.T) {
	s := Stats{Predictions: 200, Correct: 150, AltCorrect: 25}
	if s.Mispredictions() != 50 {
		t.Errorf("Mispredictions = %d", s.Mispredictions())
	}
	if s.MissRate() != 25 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
	if s.AltMissRate() != 12.5 {
		t.Errorf("AltMissRate = %v", s.AltMissRate())
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.AltMissRate() != 0 {
		t.Error("zero stats rates not 0")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Depth: -1},
		{Depth: 8},
		{Depth: 0, IndexBits: 30},
		{Depth: 0, TagBits: 20},
		{Depth: 0, SecondaryBits: 25},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	for name, cfg := range map[string]Config{
		"depth 9":            {Depth: 9},
		"RHS without hybrid": {UseRHS: true},
		"9-bit counter":      {Hybrid: true, CounterBits: 9},
	} {
		cfg.Backend = "unbounded"
		if _, err := New(cfg); err == nil {
			t.Errorf("unbounded %s accepted", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew on bad config did not panic")
		}
	}()
	MustNew(Config{Depth: -1})
}

// TestConfigRejectsUnstorableWidths: counters live in 8 bits and the
// RHS depth is saved as a u16, so construction refuses values those
// cannot hold — for every backend that normalises through Config —
// instead of panicking on a negative shift or wrapping at save time.
func TestConfigRejectsUnstorableWidths(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"CounterBits -1", Config{CounterBits: -1}},
		{"CounterBits 9", Config{CounterBits: 9}},
		{"SecCounterBits -1", Config{SecCounterBits: -1}},
		{"SecCounterBits 9", Config{SecCounterBits: 9}},
		{"CounterInc -1", Config{CounterInc: -1}},
		{"CounterInc 256", Config{CounterInc: 256}},
		{"CounterDec -1", Config{CounterDec: -1}},
		{"CounterDec 256", Config{CounterDec: 256}},
		{"SecCounterDec -1", Config{SecCounterDec: -1}},
		{"SecCounterDec 256", Config{SecCounterDec: 256}},
		{"RHSDepth -1", Config{RHSDepth: -1}},
		{"RHSDepth 65536", Config{RHSDepth: 0x10000}},
	}
	for _, c := range cases {
		for _, backend := range BackendNames() {
			cfg := c.cfg
			cfg.Backend, cfg.Depth, cfg.IndexBits, cfg.Hybrid, cfg.UseRHS = backend, 3, 10, true, true
			if _, err := New(cfg); err == nil {
				t.Errorf("%s: %s accepted", backend, c.name)
			}
		}
	}
	// The bounds themselves are storable.
	for _, backend := range BackendNames() {
		cfg := Config{Backend: backend, Depth: 3, IndexBits: 10, Hybrid: true, UseRHS: true,
			CounterBits: 8, SecCounterBits: 8, CounterInc: 255, CounterDec: 255,
			SecCounterDec: 255, RHSDepth: 0xFFFF}
		if _, err := New(cfg); err != nil {
			t.Errorf("%s: widest storable config refused: %v", backend, err)
		}
	}
}

// Property-style check: random streams keep invariants.
func TestStatsInvariantsRandomStream(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	preds := []NextTracePredictor{
		MustNew(Config{Depth: 2, IndexBits: 12}),
		MustNew(Config{Depth: 4, IndexBits: 12, Hybrid: true}),
		MustNew(Config{Depth: 7, IndexBits: 12, Hybrid: true, UseRHS: true}),
		mustUnbounded(t, Config{Depth: 5, Hybrid: true, UseRHS: true}),
	}
	for i := 0; i < 3000; i++ {
		t0 := tr(0x1000+uint32(rng.Intn(512))*4, uint8(rng.Intn(64)))
		t0.Calls = rng.Intn(3)
		t0.EndsInRet = rng.Intn(4) == 0
		for _, p := range preds {
			p.Predict()
			p.Update(t0)
		}
	}
	for i, p := range preds {
		s := p.Stats()
		if s.Predictions != 3000 {
			t.Errorf("pred %d: Predictions = %d", i, s.Predictions)
		}
		if s.Correct > s.Predictions {
			t.Errorf("pred %d: Correct > Predictions", i)
		}
		if s.AltCorrect > s.AltPresent {
			t.Errorf("pred %d: AltCorrect > AltPresent", i)
		}
		if s.Cold > s.Mispredictions() {
			t.Errorf("pred %d: Cold %d > mispredictions %d", i, s.Cold, s.Mispredictions())
		}
		if r := s.MissRate(); r < 0 || r > 100 {
			t.Errorf("pred %d: MissRate %v", i, r)
		}
	}
}
