package history

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pathtrace/internal/trace"
)

// fullBase offsets the full identifiers the two-width tests push. It is
// above 2^16, so a full-identifier lane that silently truncated to a
// hashed identifier's width would fail them.
const fullBase = 1 << 20

// TestRegPushAndAt runs over both register widths: hashed identifiers
// (the bounded predictors) and full ones (the unbounded predictor).
func TestRegPushAndAt(t *testing.T) {
	t.Run("hashed", func(t *testing.T) { testRegPushAndAt[trace.HashedID](t, 0) })
	t.Run("full", func(t *testing.T) { testRegPushAndAt[trace.ID](t, fullBase) })
}

func testRegPushAndAt[T Ident](t *testing.T, base T) {
	r, err := NewPath[T](4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("fresh Len = %d", r.Len())
	}
	for i := 1; i <= 6; i++ {
		r.Push(base + T(i))
	}
	// Most recent four: 6,5,4,3.
	for i, want := range []T{6, 5, 4, 3} {
		if got := r.At(i); got != base+want {
			t.Errorf("At(%d) = %d, want %d", i, got, base+want)
		}
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4", r.Len())
	}
	// Out-of-range positions read as zero.
	if r.At(4) != 0 || r.At(-1) != 0 {
		t.Error("out-of-range At not zero")
	}
}

func TestRegSizeValidation(t *testing.T) {
	if _, err := NewReg(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewReg(MaxSize + 1); err == nil {
		t.Error("oversize accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewReg(0) did not panic")
		}
	}()
	MustNewReg(0)
}

func TestRegCheckpointRestore(t *testing.T) {
	r := MustNewReg(8)
	for i := 1; i <= 8; i++ {
		r.Push(trace.HashedID(i * 10))
	}
	snap := r // value copy is a checkpoint
	r.Push(999)
	r.Push(998)
	r = snap
	for i := 0; i < 8; i++ {
		if got, want := r.At(i), trace.HashedID((8-i)*10); got != want {
			t.Errorf("after restore At(%d) = %d, want %d", i, got, want)
		}
	}
}

// Property: a snapshot + pushes + restore is the identity.
func TestRegRestoreInverseQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := MustNewReg(1 + rng.Intn(MaxSize))
		for i := 0; i < rng.Intn(20); i++ {
			r.Push(trace.HashedID(rng.Intn(1 << trace.HashBits)))
		}
		snap := r
		for i := 0; i < 1+rng.Intn(10); i++ {
			r.Push(trace.HashedID(rng.Intn(1 << trace.HashBits)))
		}
		r = snap
		return r == snap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDOLCValidate(t *testing.T) {
	good := DOLC{Depth: 3, Older: 4, Last: 6, Current: 6, Index: 16}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []DOLC{
		{Depth: -1, Current: 5, Index: 10},
		{Depth: 8, Current: 5, Index: 10},
		{Depth: 0, Current: 11, Index: 10},
		{Depth: 0, Current: 5, Index: 0},
		{Depth: 0, Current: 0, Index: 10},
		{Depth: 2, Older: -1, Last: 5, Current: 5, Index: 10},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad config %d (%v) accepted", i, d)
		}
	}
}

func TestDOLCCollectedBitsAndParts(t *testing.T) {
	cases := []struct {
		d     DOLC
		bits  int
		parts int
	}{
		{DOLC{Depth: 0, Current: 10, Index: 16}, 10, 1},
		{DOLC{Depth: 1, Last: 8, Current: 8, Index: 16}, 16, 1},
		{DOLC{Depth: 3, Older: 4, Last: 6, Current: 6, Index: 16}, 20, 2},
		{DOLC{Depth: 7, Older: 4, Last: 6, Current: 6, Index: 16}, 36, 3},
	}
	for _, tc := range cases {
		if got := tc.d.CollectedBits(); got != tc.bits {
			t.Errorf("%v CollectedBits = %d, want %d", tc.d, got, tc.bits)
		}
		if got := tc.d.Parts(); got != tc.parts {
			t.Errorf("%v Parts = %d, want %d", tc.d, got, tc.parts)
		}
	}
}

func TestDOLCIndexDepthZero(t *testing.T) {
	d := DOLC{Depth: 0, Current: 10, Index: 16}
	r := MustNewReg(1)
	r.Push(0x2a5)
	if got := d.IndexOf(&r); got != 0x2a5 {
		t.Errorf("index = %#x, want 0x2a5", got)
	}
}

func TestDOLCIndexConcatenation(t *testing.T) {
	// Depth 1, no folding: index = last[0:8] << 8 ... actually current is
	// pushed first (LSB), so index = current | last<<8.
	d := DOLC{Depth: 1, Last: 8, Current: 8, Index: 16}
	r := MustNewReg(2)
	r.Push(0x3AB) // becomes "last" after the next push
	r.Push(0x1CD) // current
	want := uint32(0xCD) | uint32(0xAB)<<8
	if got := d.IndexOf(&r); got != want {
		t.Errorf("index = %#x, want %#x", got, want)
	}
}

func TestDOLCIndexFolding(t *testing.T) {
	// Depth 1, 8+8 bits folded into an 8-bit index: XOR of halves.
	d := DOLC{Depth: 1, Last: 8, Current: 8, Index: 8}
	r := MustNewReg(2)
	r.Push(0x0F0)
	r.Push(0x033)
	want := uint32(0x33 ^ 0xF0)
	if got := d.IndexOf(&r); got != want {
		t.Errorf("index = %#x, want %#x", got, want)
	}
}

// refIndexOf is IndexOf written straight from §3.2: take the low bits
// of each identifier, most recent first, into one bit string (first bit
// = least significant), then XOR the string's Index-bit windows.
func refIndexOf(d DOLC, r *Reg, bits []bool) uint32 {
	bits = bits[:0]
	for i := 0; i <= d.Depth; i++ {
		n := d.Older
		switch i {
		case 0:
			n = d.Current
		case 1:
			n = d.Last
		}
		for b := 0; b < n; b++ {
			bits = append(bits, r.At(i)>>b&1 == 1)
		}
	}
	var idx uint32
	for p, set := range bits {
		if set {
			idx ^= 1 << (p % d.Index)
		}
	}
	return idx
}

// TestDOLCIndexMatchesDefinition checks IndexOf against refIndexOf for
// every DOLC that Validate accepts, on several registers each: cold
// ones (fewer pushes than the register tracks), random full ones, and
// an all-ones one that sets every collected bit.
func TestDOLCIndexMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bits := make([]bool, 0, MaxSize*trace.HashBits)
	regs := make([]Reg, 5)
	checked := 0
	for depth := 0; depth < MaxSize; depth++ {
		for older := 0; older <= trace.HashBits; older++ {
			for last := 0; last <= trace.HashBits; last++ {
				for cur := 0; cur <= trace.HashBits; cur++ {
					for index := 1; index <= 30; index++ {
						d := DOLC{Depth: depth, Older: older, Last: last, Current: cur, Index: index}
						if d.Validate() != nil {
							continue
						}
						for k := range regs {
							regs[k] = MustNewReg(depth + 1)
							pushes := depth + 1
							if k < 2 {
								pushes = rng.Intn(depth + 1)
							}
							for p := 0; p < pushes; p++ {
								v := trace.HashedID(rng.Intn(1 << trace.HashBits))
								if k == len(regs)-1 {
									v = 1<<trace.HashBits - 1
								}
								regs[k].Push(v)
							}
						}
						for k := range regs {
							got, want := d.IndexOf(&regs[k]), refIndexOf(d, &regs[k], bits)
							if got != want {
								t.Fatalf("DOLC %+v, register %d (%d pushed): IndexOf = %#x, want %#x",
									d, k, regs[k].Len(), got, want)
							}
						}
						checked++
					}
				}
			}
		}
	}
	// Valid per index width: all 8*11^3 width combinations except those
	// collecting no bits — 11*11 at depth 0 (Current 0), 11 at depth 1
	// (Last and Current 0) and one at each depth 2..7.
	if want := 30 * (MaxSize*11*11*11 - 11*11 - 11 - 6); checked != want {
		t.Errorf("checked %d configurations, want %d", checked, want)
	}
}

// Property: DOLC index is always within table bounds and deterministic.
func TestDOLCIndexRangeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := rng.Intn(MaxSize)
		d := StandardDOLC([]int{14, 15, 16}[rng.Intn(3)], depth)
		if err := d.Validate(); err != nil {
			return false
		}
		r := MustNewReg(depth + 1)
		for i := 0; i < rng.Intn(16); i++ {
			r.Push(trace.HashedID(rng.Intn(1 << trace.HashBits)))
		}
		idx := d.IndexOf(&r)
		return idx < 1<<d.Index && idx == d.IndexOf(&r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: for depth 7 configs every history position can influence
// the index.
func TestDOLCUsesDeepHistory(t *testing.T) {
	d := StandardDOLC(16, 7)
	base := MustNewReg(8)
	for i := 0; i < 8; i++ {
		base.Push(trace.HashedID(0x155))
	}
	for pos := 0; pos < 8; pos++ {
		r := base
		// Rebuild with position pos flipped in a low bit.
		r2 := MustNewReg(8)
		for i := 7; i >= 0; i-- {
			v := trace.HashedID(0x155)
			if i == pos {
				v ^= 1
			}
			r2.Push(v)
		}
		if d.IndexOf(&r) == d.IndexOf(&r2) {
			t.Errorf("flipping history position %d does not affect index", pos)
		}
	}
}

func TestStandardDOLCAllValid(t *testing.T) {
	for _, w := range []int{14, 15, 16} {
		for depth := 0; depth <= 7; depth++ {
			d := StandardDOLC(w, depth)
			if err := d.Validate(); err != nil {
				t.Errorf("StandardDOLC(%d,%d): %v", w, depth, err)
			}
			if d.Depth != depth || d.Index != w {
				t.Errorf("StandardDOLC(%d,%d) = %+v", w, depth, d)
			}
		}
	}
}

func mkTrace(hash trace.HashedID, calls int, endsRet bool) *trace.Trace {
	return &trace.Trace{Hash: hash, Calls: calls, EndsInRet: endsRet}
}

// TestRHSPushPopSplice runs over both stack widths, like
// TestRegPushAndAt.
func TestRHSPushPopSplice(t *testing.T) {
	t.Run("hashed", func(t *testing.T) { testRHSPushPopSplice[trace.HashedID](t, 0) })
	t.Run("full", func(t *testing.T) { testRHSPushPopSplice[trace.ID](t, fullBase) })
}

func testRHSPushPopSplice[T Ident](t *testing.T, base T) {
	rhs, err := NewStack[T](16)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewPath[T](4) // size<=5 -> keep 1
	if err != nil {
		t.Fatal(err)
	}

	// Build pre-call history A B C D (D most recent).
	for _, v := range []T{1, 2, 3, 4} {
		h.Push(base + v)
	}
	// Trace with one call: push snapshot (history already includes it).
	h.Push(base + 10)
	rhs.Observe(mkTrace(10, 1, false), &h)
	if rhs.Depth() != 1 {
		t.Fatalf("stack depth = %d, want 1", rhs.Depth())
	}
	// Subroutine body overwrites history.
	for _, v := range []T{20, 21, 22, 23} {
		h.Push(base + v)
	}
	// Returning trace (no calls): pop and splice.
	h.Push(base + 30)
	rhs.Observe(mkTrace(30, 0, true), &h)
	if rhs.Depth() != 0 {
		t.Fatalf("stack depth = %d, want 0", rhs.Depth())
	}
	// Keep 1 most recent (30); older positions from snapshot [10,4,3].
	want := []T{30, 10, 4, 3}
	for i, w := range want {
		if got := h.At(i); got != base+w {
			t.Errorf("After splice At(%d) = %d, want %d", i, got, base+w)
		}
	}
}

func TestRHSKeepTwoForDeepHistory(t *testing.T) {
	rhs := MustNewReturnStack(16)
	h := MustNewReg(8) // size>5 -> keep 2
	for i := 1; i <= 8; i++ {
		h.Push(trace.HashedID(i))
	}
	h.Push(100) // calling trace
	rhs.Observe(mkTrace(100, 1, false), &h)
	for i := 0; i < 8; i++ {
		h.Push(trace.HashedID(200 + i))
	}
	h.Push(150) // returning trace
	rhs.Observe(mkTrace(150, 0, true), &h)
	// Keep 2: [150, 207]; rest from snapshot [100, 8, 7, 6, 5, 4].
	want := []trace.HashedID{150, 207, 100, 8, 7, 6, 5, 4}
	for i, w := range want {
		if got := h.At(i); got != w {
			t.Errorf("At(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestRHSMultipleCallsPushMultipleCopies(t *testing.T) {
	rhs := MustNewReturnStack(16)
	h := MustNewReg(4)
	h.Push(5)
	rhs.Observe(mkTrace(5, 3, false), &h)
	if rhs.Depth() != 3 {
		t.Errorf("depth = %d, want 3", rhs.Depth())
	}
	// Trace with a call AND ending in return: net 0, no push, no pop.
	h.Push(6)
	rhs.Observe(mkTrace(6, 1, true), &h)
	if rhs.Depth() != 3 {
		t.Errorf("depth after net-zero trace = %d, want 3", rhs.Depth())
	}
}

func TestRHSUnderflowIsNoop(t *testing.T) {
	rhs := MustNewReturnStack(4)
	h := MustNewReg(4)
	for _, v := range []trace.HashedID{1, 2, 3, 4} {
		h.Push(v)
	}
	before := h
	rhs.Observe(mkTrace(4, 0, true), &h) // return with empty stack
	if h != before {
		t.Error("pop of empty stack modified history")
	}
}

func TestRHSOverflowDropsDeepest(t *testing.T) {
	rhs := MustNewReturnStack(2)
	h := MustNewReg(4)
	for i := 1; i <= 3; i++ {
		h.Push(trace.HashedID(i * 11))
		rhs.Observe(mkTrace(trace.HashedID(i*11), 1, false), &h)
	}
	if rhs.Depth() != 2 {
		t.Fatalf("depth = %d, want 2 (bounded)", rhs.Depth())
	}
	// Pop should yield the most recent snapshot (pushed at i=3).
	h2 := MustNewReg(4)
	h2.Push(99)
	rhs.Observe(mkTrace(99, 0, true), &h2)
	// Snapshot at i=3 had [33 22 11 0]; keep 1 -> [99 33 22 11].
	want := []trace.HashedID{99, 33, 22, 11}
	for i, w := range want {
		if got := h2.At(i); got != w {
			t.Errorf("At(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestNewReturnStackValidation(t *testing.T) {
	if _, err := NewReturnStack(0); err == nil {
		t.Error("depth 0 accepted")
	}
}

// TestRHSObserveBoundedPushes checks that Observe, which pushes at most
// max copies of the history per trace, leaves the stack exactly as one
// push per net call would, for every net call count up to 3*max and
// from an empty, a part-filled and a full stack, at both widths.
func TestRHSObserveBoundedPushes(t *testing.T) {
	t.Run("hashed", func(t *testing.T) { testRHSObserveBoundedPushes[trace.HashedID](t, 0) })
	t.Run("full", func(t *testing.T) { testRHSObserveBoundedPushes[trace.ID](t, fullBase) })
}

func testRHSObserveBoundedPushes[T Ident](t *testing.T, base T) {
	const max = 5
	for _, filled := range []int{0, 2, max} {
		for net := 0; net <= 3*max; net++ {
			got, _ := NewStack[T](max)
			want, _ := NewStack[T](max)
			for i := 0; i < filled; i++ {
				old, _ := NewPath[T](4)
				old.Push(base + T(100+i))
				got.push(old)
				want.push(old)
			}
			h, _ := NewPath[T](4)
			h.Push(base + 7)
			h.Push(base + 8)
			got.Observe(mkTrace(8, net, false), &h)
			for i := 0; i < net; i++ {
				want.push(h)
			}
			if len(got.stack) != len(want.stack) {
				t.Fatalf("filled %d net %d: depth %d, want %d", filled, net, len(got.stack), len(want.stack))
			}
			for i := range want.stack {
				if got.stack[i] != want.stack[i] {
					t.Fatalf("filled %d net %d: entry %d = %+v, want %+v", filled, net, i, got.stack[i], want.stack[i])
				}
			}
		}
	}
}
