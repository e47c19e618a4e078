package history

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"pathtrace/internal/trace"
)

// The fold tests drive a hashed register under a DOLC fold and a full
// one under a key fold through the same operations, and after every
// step require the rolled index to equal DOLC.IndexOf and the rolled
// key to equal refKey, both computed from scratch.

// Operations a fold script encodes, one per op byte (mod foldOps).
const (
	opPush       = iota // 2 bytes: the identifier
	opCall              // 1 byte: 1–3 calls; Observe pushes snapshots
	opReturn            // Observe of a return: pop and splice
	opCorrupt           // 1 byte position (-1..8), 2 bytes mask
	opCheckpoint        // 1 byte: even saves value copies, odd restores them
	opState             // State → RegFromState, stack through StackFromState
	foldOps
)

// refKey is KeyFold's key from its definition: Mix64 of each
// identifier, rotated left by its position.
func refKey(r *Path[trace.ID]) uint64 {
	var k uint64
	for i := 0; i < r.Size(); i++ {
		k ^= bits.RotateLeft64(Mix64(uint64(r.At(i))), i)
	}
	return k
}

// decodeFoldScript reads a DOLC and an RHS capacity from the first six
// bytes of b; ok is false when b is shorter or the DOLC collects no
// bits.
func decodeFoldScript(b []byte) (d DOLC, rhsMax int, ops []byte, ok bool) {
	if len(b) < 6 {
		return d, 0, nil, false
	}
	d = DOLC{
		Depth:   int(b[0] % MaxSize),
		Index:   1 + int(b[1]%26),
		Older:   int(b[2] % (trace.HashBits + 1)),
		Last:    int(b[3] % (trace.HashBits + 1)),
		Current: int(b[4] % (trace.HashBits + 1)),
	}
	return d, 1 + int(b[5]%8), b[6:], d.Validate() == nil
}

// encodeFoldScript is decodeFoldScript's inverse for a valid DOLC.
func encodeFoldScript(d DOLC, rhsMax int, ops []byte) []byte {
	head := []byte{byte(d.Depth), byte(d.Index - 1), byte(d.Older), byte(d.Last), byte(d.Current), byte(rhsMax - 1)}
	return append(head, ops...)
}

// runFoldScript applies ops and returns the first step at which a fold
// disagrees with its from-scratch definition.
func runFoldScript(d DOLC, rhsMax int, ops []byte) error {
	f, kf := d.Fold(), KeyFold(d.Depth+1)
	r := MustNewReg(d.Depth + 1)
	r.SetFold(&f)
	u, _ := NewPath[trace.ID](d.Depth + 1)
	u.SetFold(&kf)
	rs := MustNewReturnStack(rhsMax)
	us, _ := NewStack[trace.ID](rhsMax)
	type checkpoint struct {
		r Reg
		u Path[trace.ID]
	}
	var saved *checkpoint

	pos := 0
	next := func() byte {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return ops[pos-1]
	}
	next16 := func() uint16 { return uint16(next()) | uint16(next())<<8 }
	for step := 0; pos < len(ops); step++ {
		op := next() % foldOps
		switch op {
		case opPush:
			x := next16()
			r.Push(trace.HashedID(x & (1<<trace.HashBits - 1)))
			u.Push(fullBase + trace.ID(x))
		case opCall:
			tr := &trace.Trace{Calls: 1 + int(next()%3)}
			rs.Observe(tr, &r)
			us.Observe(tr, &u)
		case opReturn:
			tr := &trace.Trace{EndsInRet: true}
			rs.Observe(tr, &r)
			us.Observe(tr, &u)
		case opCorrupt:
			i := int(next()%10) - 1
			m := trace.HashedID(next16())
			r.CorruptAt(i, m)
			u.CorruptAt(i, m)
		case opCheckpoint:
			if next()%2 == 0 {
				saved = &checkpoint{r, u}
			} else if saved != nil {
				r, u = saved.r, saved.u
			}
		case opState:
			r2, err := RegFromState(r.State())
			if err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
			r2.SetFold(&f)
			r = r2
			st := StackState{Max: rs.Max()}
			for i := 0; i < rs.Depth(); i++ {
				st.Regs = append(st.Regs, rs.Saved(i))
			}
			if rs, err = StackFromState(st); err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
		}
		if got, want := f.Index(&r), d.IndexOf(&r); got != want {
			return fmt.Errorf("step %d (op %d): DOLC %+v rolled index %#x, IndexOf %#x (register %+v)", step, op, d, got, want, r.State())
		}
		if got, want := u.Folded(), refKey(&u); got != want {
			return fmt.Errorf("step %d (op %d): size %d rolled key %#x, want %#x (register %+v)", step, op, u.Size(), got, want, u.State())
		}
	}
	return nil
}

// foldSeedOps is a script that touches every operation: it fills the
// register past its depth, calls, runs a subroutine body long enough to
// replace every position, corrupts older and recent positions, and
// returns through a checkpoint restore and a state round trip.
func foldSeedOps() []byte {
	var b []byte
	push := func(x uint16) { b = append(b, opPush, byte(x), byte(x>>8)) }
	for i := 0; i < 10; i++ {
		push(uint16(0x2a5 + 37*i))
	}
	b = append(b, opCall, 0)
	for i := 0; i < 9; i++ {
		push(uint16(0x111 * (i + 1)))
	}
	b = append(b, opCorrupt, 4, 0xff, 0x03, opCorrupt, 1, 0x5a, 0x00)
	b = append(b, opReturn)
	b = append(b, opCheckpoint, 0)
	for i := 0; i < 3; i++ {
		push(uint16(0x3c3 ^ i))
	}
	b = append(b, opCall, 2, opCorrupt, 8, 0x81, 0x02, opReturn, opCheckpoint, 1)
	b = append(b, opCall, 1, opState)
	for i := 0; i < 9; i++ {
		push(uint16(0x0f0 + i))
	}
	b = append(b, opReturn, opReturn, opCorrupt, 0, 0x01, 0x00, opReturn)
	return b
}

// foldSeedGeometries is every StandardDOLC geometry plus DOLCs whose
// index is narrower than a field, whose Older differs from Last, or
// which take no bits from some positions.
func foldSeedGeometries() []DOLC {
	var ds []DOLC
	for _, w := range []int{14, 15, 16} {
		for depth := 0; depth < MaxSize; depth++ {
			ds = append(ds, StandardDOLC(w, depth))
		}
	}
	return append(ds,
		DOLC{Depth: 7, Older: 10, Last: 3, Current: 0, Index: 1},
		DOLC{Depth: 5, Older: 0, Last: 10, Current: 7, Index: 5},
		DOLC{Depth: 3, Older: 9, Last: 2, Current: 10, Index: 26},
		DOLC{Depth: 6, Older: 7, Last: 0, Current: 4, Index: 3},
	)
}

func FuzzPathFold(f *testing.F) {
	ops := foldSeedOps()
	for _, d := range foldSeedGeometries() {
		f.Add(encodeFoldScript(d, 4, ops))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d, rhsMax, ops, ok := decodeFoldScript(b)
		if !ok {
			return
		}
		if err := runFoldScript(d, rhsMax, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPathFoldMatchesIndexOf runs random scripts over random valid
// DOLCs, at every depth and RHS capacity.
func TestPathFoldMatchesIndexOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; {
		b := make([]byte, 6+rng.Intn(400))
		rng.Read(b)
		d, rhsMax, ops, ok := decodeFoldScript(b)
		if !ok {
			continue
		}
		n++
		if err := runFoldScript(d, rhsMax, ops); err != nil {
			t.Fatal(err)
		}
	}
}
