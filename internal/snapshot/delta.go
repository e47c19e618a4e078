package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"pathtrace/internal/predictor"
)

// A delta envelope has a full frame's layout (snapshot.go) with magic
// "NTSD", version 1, and a delta section in place of the state section;
// lastSeq is the session's cursor after the delta. A delta carries what
// changed in a session since a snapshot its receiver holds;
// Held.Apply merges it into that snapshot's frame. The delta section's
// layout is the backend's own (predictor.Backend.AppendDelta and
// MergeDelta).

// DeltaVersion is the current delta envelope version.
const DeltaVersion = 1

var deltaMagic = [4]byte{'N', 'T', 'S', 'D'}

// offLastSeq is the offset of an envelope's lastSeq field.
const offLastSeq = headerBytes + 8

// AppendDelta appends one checksummed delta envelope to dst: the
// session header and backend tag, then the delta section that delta
// appends in place, then the checksum. On any error it returns dst with
// nothing appended.
func AppendDelta(dst []byte, id, lastSeq uint64, backend string, delta func([]byte) ([]byte, error)) ([]byte, error) {
	return appendEnvelope(dst, deltaMagic, DeltaVersion, id, lastSeq, backend, delta)
}

// IsDelta reports whether b starts like a delta envelope rather than a
// full frame.
func IsDelta(b []byte) bool { return len(b) >= 4 && [4]byte(b[:4]) == deltaMagic }

// Held is a session frame kept current by merging deltas into it. The
// frame sits at the end of its buffer with free room in front, and a
// merge keeps its end in place: an entry that replaces a held one is
// written over it, and a delta that adds none and resizes only the
// state's small leading part (the RHS grows or shrinks every few
// rounds) moves just the bytes in front of the tables. The checksum is
// recomputed only when the frame is read.
//
// Beside the frame it keeps the state's predictor.MergeIndex, so a merge
// neither parses the held state nor searches it: built by the first
// Apply after a Set, then kept current by every Apply.
//
// The zero Held holds no frame.
type Held struct {
	buf    []byte // the frame is buf[off:]
	off    int
	sealed bool // the frame's checksum is current
	idx    predictor.MergeIndex
	plan   []predictor.Splice
	lits   [predictor.MergeLits]byte // the plan's own literals
}

// Len is the held frame's length, 0 when none is held.
func (h *Held) Len() int { return len(h.buf) - h.off }

// room is the free space kept in front of an n-byte frame.
func room(n int) int { return n/32 + 256 }

// Set replaces the held frame with a copy of frame, a full snapshot
// frame. The buffer is reused when it fits.
func (h *Held) Set(frame []byte) {
	r := room(len(frame))
	if cap(h.buf) < r+len(frame) {
		h.buf = make([]byte, 0, r+len(frame))
	}
	h.off = r
	h.buf = append(h.buf[:r], frame...)
	h.sealed = true
	h.idx.Reset()
}

// Frame returns the held frame, its checksum computed. It aliases the
// Held's buffer until the next Set or Apply.
func (h *Held) Frame() []byte {
	f := h.buf[h.off:]
	if !h.sealed && len(f) >= minFrame {
		binary.LittleEndian.PutUint32(f[len(f)-checksumBytes:], crc32.ChecksumIEEE(f[:len(f)-checksumBytes]))
		h.sealed = true
	}
	return f
}

// Apply merges a delta envelope into the held frame. The envelope must
// be intact and name the held frame's session and backend, and the
// backend's MergeDelta must accept its delta section against the held
// state; otherwise Apply returns an error (ErrTruncated, ErrMagic,
// ErrVersion, ErrChecksum or ErrCorrupt) and the held frame is left as
// it was, byte for byte. Apply allocates at most O(frame + delta), plus
// the index's one bit per table slot once per frame Set.
func (h *Held) Apply(delta []byte) error {
	d, err := openEnvelope(delta, deltaMagic, DeltaVersion, true)
	if err != nil {
		return err
	}
	f := h.buf[h.off:]
	held, err := openEnvelope(f, magic, Version, false)
	switch {
	case err != nil:
		return fmt.Errorf("%w: held frame: %v", ErrCorrupt, err)
	case held.id != d.id:
		return fmt.Errorf("%w: delta for session %#x, frame holds %#x", ErrCorrupt, d.id, held.id)
	case string(held.tag) != string(d.tag):
		return fmt.Errorf("%w: delta backend %q, frame holds %q", ErrCorrupt, d.tag, held.tag)
	}
	b, ok := predictor.BackendByName(string(d.tag))
	if !ok {
		return fmt.Errorf("%w: backend %q is not registered", ErrCorrupt, d.tag)
	}

	// The backend writes replaced entries in place and plans the rest;
	// the header's cursor and state length are written in place too,
	// then the plan, moved from state to frame offsets, is spliced.
	plan, err := b.MergeDelta(h.plan[:0], &h.lits, &h.idx, held.section, d.section)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	stateAt := len(f) - checksumBytes - len(held.section)
	stateLen := len(held.section)
	for i := range plan {
		s := &plan[i]
		s.Off += stateAt
		stateLen += len(s.Lit) - s.Del
	}
	le := binary.LittleEndian
	le.PutUint64(f[offLastSeq:], d.lastSeq)
	le.PutUint32(f[stateAt-4:], uint32(stateLen))
	h.splice(plan)
	h.plan = plan[:0]
	h.sealed = false
	return nil
}

// splice applies plan, whose offsets are relative to the frame, in
// place, keeping the frame's end fixed: each run of bytes between
// splices moves by the net length of the splices after it. Any
// order-preserving set of moves is safe if the runs moving left go
// first, left to right, then the runs moving right, right to left, and
// the literals last, so that is the order.
func (h *Held) splice(plan []predictor.Splice) {
	oldLen := len(h.buf) - h.off
	growth := 0
	for _, s := range plan {
		growth += len(s.Lit) - s.Del
	}
	if growth > h.off {
		r := room(oldLen+growth) + growth
		nb := make([]byte, r+oldLen)
		copy(nb[r:], h.buf[h.off:])
		h.buf, h.off = nb, r
	}
	buf, base := h.buf, h.off
	cum, prev := 0, 0
	for i := 0; i <= len(plan); i++ {
		stop := oldLen
		if i < len(plan) {
			stop = plan[i].Off
		}
		if sh := cum - growth; sh < 0 {
			copy(buf[base+prev+sh:], buf[base+prev:base+stop])
		}
		if i < len(plan) {
			cum += len(plan[i].Lit) - plan[i].Del
			prev = plan[i].Off + plan[i].Del
		}
	}
	cum, next := growth, oldLen
	for i := len(plan); i >= 0; i-- {
		start := 0
		if i > 0 {
			start = plan[i-1].Off + plan[i-1].Del
		}
		if sh := cum - growth; sh > 0 {
			copy(buf[base+start+sh:], buf[base+start:base+next])
		}
		if i > 0 {
			cum -= len(plan[i-1].Lit) - plan[i-1].Del
			next = plan[i-1].Off
		}
	}
	h.off = base - growth
	cum = 0
	for _, s := range plan {
		copy(buf[h.off+s.Off+cum:], s.Lit)
		cum += len(s.Lit) - s.Del
	}
}
