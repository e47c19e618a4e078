package history

// Fold describes a rolling XOR-fold that a register keeps up to date on
// every Push, so a lookup reads an index or a key instead of re-folding
// the whole path. The fold is the XOR, over positions from..size-1, of
// each identifier's term rotated left within width bits by
// step·(position − from). A term is Mix64 of the identifier (a key
// fold) or the identifier's low bits under mask, folded to width bits
// (a DOLC fold).
//
// A push moves every folded position one further, which rotates each
// term by one more step; so it rotates the fold by step, XORs out the
// identifier leaving the last position and XORs in the one entering
// position from. The fold is derived state: a register's State omits
// it and SetFold recomputes it.
//
// A Fold is immutable once built and is shared by pointer between a
// register and its checkpoints.
type Fold struct {
	from   int    // first folded position
	width  uint   // bits in the fold, 1..64
	wmask  uint64 // 1<<width - 1
	step   uint   // rotation added per position
	outRot uint   // rotation of the last position
	mask   uint64 // bits taken of each identifier (DOLC folds)
	mix    bool   // terms are Mix64 of the identifier (key folds)

	// What a DOLC's Index adds at lookup: the rolled positions sit at
	// collection offset base, and positions 0 and 1 contribute their
	// Current and Last bits, position 1's at offset lastRot.
	base, lastRot uint
	cur, last     uint64
}

// Fold compiles d for a register of d.Depth+1 identifiers: positions 2
// through Depth, which all take Older bits, roll in the register, and
// Index adds positions 0 and 1 at lookup. IndexOf is the same function
// computed from scratch.
func (d DOLC) Fold() Fold {
	w := uint(d.Index)
	f := Fold{
		from:    2,
		width:   w,
		wmask:   1<<w - 1,
		step:    uint(d.Older) % w,
		mask:    1<<d.Older - 1,
		base:    uint(d.Current+d.Last) % w,
		lastRot: uint(d.Current) % w,
		cur:     1<<d.Current - 1,
	}
	if d.Depth >= 1 {
		f.last = 1<<d.Last - 1
	}
	if d.Depth >= 2 {
		f.outRot = f.rotAt(d.Depth)
	}
	return f
}

// KeyFold returns the fold that keys a register of size identifiers by
// its exact path: Mix64 of each identifier, rotated by its position
// within 64 bits. The rotations 0..7 hold no two positions' terms to a
// common period, so distinct paths collide only as two random 64-bit
// words would.
func KeyFold(size int) Fold {
	f := Fold{width: 64, wmask: ^uint64(0), step: 1, mix: true}
	f.outRot = f.rotAt(size - 1)
	return f
}

// rotAt is position i's rotation (i >= from).
func (f *Fold) rotAt(i int) uint {
	return f.step * uint(i-f.from) % f.width
}

// rot rotates x, which fits width bits, left by k < width. Masking the
// shift counts (a no-op on their range) spares the compiler's check
// for counts of 64 or more; at k = 0 the right shift is by width,
// which clears x below 64 bits and is a shift by 0 at 64.
func (f *Fold) rot(x uint64, k uint) uint64 {
	return (x<<(k&63) | x>>((f.width-k)&63)) & f.wmask
}

// term is an identifier's unrotated contribution.
func (f *Fold) term(id uint64) uint64 {
	if f.mix {
		return Mix64(id)
	}
	return foldTo(id&f.mask, f.width, f.wmask)
}

// foldTo XOR-folds x down to width bits: bit p goes to p mod width.
func foldTo(x uint64, width uint, wmask uint64) uint64 {
	for x > wmask {
		x = x&wmask ^ x>>(width&63)
	}
	return x
}

// Index returns the DOLC index of r, whose fold must be f: the rolled
// positions at their offset plus positions 0 and 1, folded to the
// index width. Every offset is below the width, so shifting instead of
// rotating leaves the final fold to wrap the bits. It equals the
// compiling DOLC's IndexOf(r).
func (f *Fold) Index(r *Reg) uint32 {
	acc := r.fold<<(f.base&63) ^ uint64(r.ids[0])&f.cur ^ (uint64(r.ids[1])&f.last)<<(f.lastRot&63)
	return uint32(foldTo(acc, f.width, f.wmask))
}

// Mix64 is a splitmix64-style finaliser: a bijection on 64-bit words
// that spreads every input bit over the whole output.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
