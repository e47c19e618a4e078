package history

import (
	"fmt"

	"pathtrace/internal/trace"
)

// DOLC specifies the index-generation mechanism of §3.2, using the
// naming convention developed for the multiscalar inter-task predictor:
//
//	Depth   — number of traces besides the most recent used in the index
//	Older   — bits taken from each trace older than the last
//	Last    — bits taken from the next-to-most-recent trace
//	Current — bits taken from the most recent trace
//
// Low-order bits of the hashed identifiers are used; more bits come
// from more recent traces. The collected bits are concatenated and, if
// longer than the index, folded onto themselves with exclusive-or.
type DOLC struct {
	Depth   int
	Older   int
	Last    int
	Current int
	Index   int // index width in bits (table has 1<<Index entries)
}

// Validate checks structural constraints: field widths must not exceed
// the hashed-identifier width, the index must be positive, and the
// depth must fit a history register.
func (d DOLC) Validate() error {
	if d.Depth < 0 || d.Depth > MaxSize-1 {
		return fmt.Errorf("history: DOLC depth %d outside [0, %d]", d.Depth, MaxSize-1)
	}
	if d.Index < 1 || d.Index > 30 {
		return fmt.Errorf("history: DOLC index width %d outside [1, 30]", d.Index)
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{{"Older", d.Older}, {"Last", d.Last}, {"Current", d.Current}} {
		if f.v < 0 || f.v > trace.HashBits {
			return fmt.Errorf("history: DOLC %s %d outside [0, %d]", f.name, f.v, trace.HashBits)
		}
	}
	if d.CollectedBits() == 0 {
		return fmt.Errorf("history: DOLC collects no bits")
	}
	return nil
}

// CollectedBits returns the length of the concatenated bit collection
// before folding.
func (d DOLC) CollectedBits() int {
	n := d.Current
	if d.Depth >= 1 {
		n += d.Last
	}
	if d.Depth >= 2 {
		n += (d.Depth - 1) * d.Older
	}
	return n
}

// Parts returns how many index-width segments the collection folds
// into — the "(1p)/(2p)/(3p)" annotation of the paper's Table 3.
func (d DOLC) Parts() int {
	return (d.CollectedBits() + d.Index - 1) / d.Index
}

// String renders the configuration in the paper's D-O-L-C notation.
func (d DOLC) String() string {
	return fmt.Sprintf("%d-%d-%d-%d", d.Depth, d.Older, d.Last, d.Current)
}

// IndexOf computes the prediction-table index for the given history
// register from scratch. Bits are collected most-recent-first (current
// in the least significant positions), then XOR-folded down to the
// index width. The predictors do not call it per round: a register
// keeps the fold rolled (see Fold), and Fold.Index equals IndexOf after
// every push, splice, corruption and restore. IndexOf is the
// definition the fold tests check that against.
//
// Folding sends collected bit p to index bit p mod Index, so the
// collection is never materialised: each field is XORed into one
// accumulator at its collection offset reduced mod Index (a shift
// below 30 for a field of at most 10 bits), and the accumulator's bits
// at or above Index are folded down at the end — at most once for
// Index >= 10.
func (d DOLC) IndexOf(r *Reg) uint32 {
	acc := uint64(r.At(0)) & (1<<d.Current - 1)
	s := d.Current
	for i := 1; i <= d.Depth; i++ {
		w := d.Older
		if i == 1 {
			w = d.Last
		}
		for s >= d.Index {
			s -= d.Index
		}
		acc ^= (uint64(r.At(i)) & (1<<w - 1)) << s
		s += w
	}
	m := uint64(1)<<d.Index - 1
	for acc > m {
		acc = acc&m ^ acc>>d.Index
	}
	return uint32(acc)
}

// StandardDOLC returns the index-generation configuration used for the
// given index width and history depth throughout the evaluation — this
// repository's instantiation of the paper's Table 3. The published
// table is partly illegible, so these were chosen the way the paper
// describes ("based on trial-and-error"): on our workloads, taking the
// full hashed identifier from every history position and XOR-folding
// the collection beat narrower per-position bit budgets at every table
// size (see the ablation-dolc experiment), with the 15-bit index
// preferring slightly fewer bits from older traces.
func StandardDOLC(indexBits, depth int) DOLC {
	d := DOLC{Depth: depth, Index: indexBits}
	if depth == 0 {
		// Only the most recent trace: the whole hashed ID.
		d.Current = trace.HashBits
		return d
	}
	switch indexBits {
	case 15:
		d.Older, d.Last, d.Current = 8, 10, 10
	default:
		d.Older, d.Last, d.Current = 10, 10, 10
	}
	return d
}
