// Package history implements the path-history machinery of the
// path-based next trace predictor: the path history register, the DOLC
// index-generation mechanism, which the register keeps rolled (Fold),
// and the Return History Stack (§3.2 and §3.4 of the paper). The
// register and the stack hold hashed trace identifiers (Reg and
// ReturnStack, which the bounded predictors index their tables by) or
// full ones (the unbounded predictor of §5.2, which keys exact paths
// by them); one implementation, generic over the identifier, serves
// both.
package history

import (
	"fmt"

	"pathtrace/internal/trace"
)

// MaxSize is the largest number of identifiers a history register can
// track: the paper studies history depths 0 through 7, i.e. up to 8
// identifiers.
const MaxSize = 8

// Ident is the identifier a path history holds: a hashed trace
// identifier or a full one.
type Ident interface {
	trace.HashedID | trace.ID
}

// Path is the path history register: a shift register of trace
// identifiers. Index 0 is the most recent trace ("current" in DOLC
// terms), index 1 the one before ("last"), and so on.
//
// Path is a value type; copying it is a checkpoint. The predictor
// updates it speculatively with each prediction and restores a saved
// copy when a misprediction is discovered.
type Path[T Ident] struct {
	ids  [MaxSize]T
	size int // identifiers tracked (depth+1)
	n    int // identifiers pushed so far, capped at size

	// fold is the rolling fold fs describes, kept by Push, CorruptAt
	// and splices; fs is nil when the register keeps none (see SetFold).
	fold uint64
	fs   *Fold

	// hook, when set, runs after every Push. It exists for fault
	// injection (package faults corrupts identifiers through it) and is
	// carried along by checkpoints, so restored histories stay under
	// the same injection plan. It is an interface (not a func) so Path
	// stays comparable; implementations must be pointer-backed.
	hook Hook[T]
}

// Reg is the register of hashed identifiers.
type Reg = Path[trace.HashedID]

// Hook observes — and may corrupt — a register after each Push.
// Implementations must not call Push re-entrantly.
type Hook[T Ident] interface {
	OnPush(*Path[T])
}

// PushHook is the hook of a hashed register.
type PushHook = Hook[trace.HashedID]

// NewPath returns a history register tracking size identifiers
// (the predictor's history depth + 1).
func NewPath[T Ident](size int) (Path[T], error) {
	if size < 1 || size > MaxSize {
		return Path[T]{}, fmt.Errorf("history: size %d outside [1, %d]", size, MaxSize)
	}
	return Path[T]{size: size}, nil
}

// NewReg is NewPath for hashed identifiers.
func NewReg(size int) (Reg, error) { return NewPath[trace.HashedID](size) }

// MustNewReg is NewReg for statically known sizes; it panics on error.
func MustNewReg(size int) Reg {
	r, err := NewReg(size)
	if err != nil {
		panic(err)
	}
	return r
}

// Push shifts a new most-recent identifier into the register and rolls
// its fold.
func (r *Path[T]) Push(h T) {
	if f := r.fs; f != nil {
		in := uint64(h)
		if f.from > 0 {
			in = uint64(r.ids[f.from-1])
		}
		out := f.rot(f.term(uint64(r.ids[r.size-1])), f.outRot)
		r.fold = f.rot(r.fold^out, f.step) ^ f.term(in)
	}
	copy(r.ids[1:r.size], r.ids[:r.size-1])
	r.ids[0] = h
	if r.n < r.size {
		r.n++
	}
	if r.hook != nil {
		r.hook.OnPush(r)
	}
}

// SetFaultHook installs a hook invoked after every Push (nil removes
// it). Used by fault injection.
func (r *Path[T]) SetFaultHook(h Hook[T]) { r.hook = h }

// CorruptAt XORs mask, cut to a hashed identifier's width, into the
// i-th most recent identifier. It is the mutation primitive for fault
// injection; out-of-range positions are ignored. A DOLC fold is linear
// in each identifier, so the fold takes the mask's term at i's
// rotation; a key fold is recomputed.
func (r *Path[T]) CorruptAt(i int, mask trace.HashedID) {
	if i < 0 || i >= r.size {
		return
	}
	m := T(mask & (1<<trace.HashBits - 1))
	r.ids[i] ^= m
	switch f := r.fs; {
	case f == nil || i < f.from:
	case f.mix:
		r.refold()
	default:
		r.fold ^= f.rot(f.term(uint64(m)), f.rotAt(i))
	}
}

// SetFold makes the register keep f from now on and computes f over
// the identifiers it holds; nil drops the fold. A register with no
// position for f to fold (a DOLC of depth below 2) keeps none, and
// its fold reads zero. f must outlive the register and its copies.
func (r *Path[T]) SetFold(f *Fold) {
	if f != nil && f.from >= r.size {
		f = nil
	}
	r.fs = f
	r.refold()
}

// Folded returns the register's fold: a key fold's path key, or a DOLC
// fold's rolled positions (Fold.Index adds the rest).
func (r *Path[T]) Folded() uint64 { return r.fold }

// refold recomputes the fold from scratch, the way Push and CorruptAt
// maintain it. Splices call it, since they rewrite the older positions
// wholesale.
func (r *Path[T]) refold() {
	r.fold = 0
	f := r.fs
	if f == nil {
		return
	}
	// Horner's rule over the rotations, oldest position first.
	for i := r.size - 1; i >= f.from; i-- {
		r.fold = f.rot(r.fold, f.step) ^ f.term(uint64(r.ids[i]))
	}
}

// At returns the i-th most recent identifier (0 = current). Positions
// not yet filled (cold start) read as zero, matching hardware reset.
func (r *Path[T]) At(i int) T {
	if i < 0 || i >= r.size {
		return 0
	}
	return r.ids[i]
}

// Size returns the number of identifiers tracked.
func (r *Path[T]) Size() int { return r.size }

// Len returns the number of identifiers pushed so far (saturating at
// Size); it distinguishes a cold register from one holding real zeros.
func (r *Path[T]) Len() int { return r.n }

// PathState is the exported, serializable state of a history register:
// everything Push/At observe, without the fault hook (hooks are process
// state and must be re-installed by whoever restores the register) or
// the fold (derived state, which SetFold recomputes).
type PathState[T Ident] struct {
	IDs  [MaxSize]T
	Size int
	N    int
}

// State captures the register for serialization (session snapshots).
func (r *Path[T]) State() PathState[T] {
	return PathState[T]{IDs: r.ids, Size: r.size, N: r.n}
}

// PathFromState rebuilds a register from a serialized state,
// validating the same invariants NewPath enforces plus the fill count,
// and that no identifier sits past the register's size: a state has
// one encoding. A hashed identifier must also fit trace.HashBits. The
// restored register carries no fault hook and keeps no fold until
// SetFold.
func PathFromState[T Ident](st PathState[T]) (Path[T], error) {
	if st.Size < 1 || st.Size > MaxSize {
		return Path[T]{}, fmt.Errorf("history: restored size %d outside [1, %d]", st.Size, MaxSize)
	}
	if st.N < 0 || st.N > st.Size {
		return Path[T]{}, fmt.Errorf("history: restored fill %d outside [0, %d]", st.N, st.Size)
	}
	_, hashed := any(st.IDs[0]).(trace.HashedID)
	for i, id := range st.IDs {
		switch {
		case i >= st.Size && id != 0:
			return Path[T]{}, fmt.Errorf("history: restored id[%d] = %#x past size %d", i, id, st.Size)
		case hashed && uint64(id) >= 1<<trace.HashBits:
			return Path[T]{}, fmt.Errorf("history: restored id[%d] = %#x exceeds %d bits", i, id, trace.HashBits)
		}
	}
	return Path[T]{ids: st.IDs, size: st.Size, n: st.N}, nil
}
