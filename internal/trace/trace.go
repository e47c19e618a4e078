// Package trace implements trace selection and naming for a trace-cache
// front end, following §3.1 and §4.2 of "Path-Based Next Trace
// Prediction" (Jacobson, Rotenberg, Smith; MICRO-30, 1997).
//
// A trace is a dynamic sequence of up to MaxLen instructions containing
// up to MaxBranches embedded conditional branches. Direct jumps and
// direct calls may be embedded, because their targets are static; any
// instruction with an indirect target (indirect jump, indirect call, or
// return) must be the last instruction of a trace, so that a trace is
// uniquely identified by its starting PC plus the outcomes of its
// conditional branches.
package trace

import (
	"fmt"
	"strconv"

	"pathtrace/internal/isa"
	"pathtrace/internal/sim"
)

// Default trace selection limits (paper §3.1: 16-instruction traces
// with up to six embedded conditional branches).
const (
	DefaultMaxLen      = 16
	DefaultMaxBranches = 6
)

// ID is the canonical trace identifier: 36 bits comprising the
// word-address of the starting PC (30 bits) and the outcomes of up to
// six embedded conditional branches (6 bits, bit i = outcome of the
// i-th branch, 1 = taken, zero beyond the last branch).
type ID uint64

// idBranchBits is the number of branch-outcome bits in an ID.
const idBranchBits = 6

// IDBits is the total width of a trace identifier (30 PC bits plus
// idBranchBits outcome bits).
const IDBits = 30 + idBranchBits

// MakeID builds a trace identifier from a starting PC and the packed
// branch outcomes.
func MakeID(startPC uint32, outcomes uint8) ID {
	return ID(startPC>>2)&0x3fffffff<<idBranchBits | ID(outcomes)&0x3f
}

// StartPC recovers the starting byte address of the trace.
func (id ID) StartPC() uint32 { return uint32(id>>idBranchBits) << 2 }

// Outcomes recovers the packed conditional branch outcomes.
func (id ID) Outcomes() uint8 { return uint8(id) & 0x3f }

// String renders the ID as "pc:TNT..." with one letter per outcome
// bit. It formats into a stack buffer (one allocation, for the
// returned string, instead of the escaping []byte plus fmt state a
// Sprintf-based rendering costs); even so it is for error paths and
// diagnostics only — hot paths work with the raw ID.
func (id ID) String() string {
	// "0x" + up to 8 hex digits + ":" + idBranchBits outcome letters.
	var buf [2 + 8 + 1 + idBranchBits]byte
	b := append(buf[:0], '0', 'x')
	b = strconv.AppendUint(b, uint64(id.StartPC()), 16)
	b = append(b, ':')
	out := id.Outcomes()
	for i := 0; i < idBranchBits; i++ {
		if out>>i&1 == 1 {
			b = append(b, 'T')
		} else {
			b = append(b, 'N')
		}
	}
	return string(b)
}

// HashBits is the width of a hashed trace identifier. The paper uses
// ~10-bit hashed IDs: the correlated table's tag is "the low 10 bits of
// the hashed identifier", and the cost-reduced predictor stores the
// 10-bit hash in place of the full ID.
const HashBits = 10

// HashedID is a HashBits-bit hash of a trace ID, used in the path
// history register, as the correlated-table tag, as the secondary-table
// index, and as the trace-cache index.
type HashedID uint16

// Hash compresses the trace ID per §3.2 of the paper: the outcomes of
// the first two conditional branches form the least significant two
// bits; the two least significant bits of the (word) starting PC are the
// next two; the upper bits are the next PC bits exclusive-ored with the
// remaining branch outcomes (zero beyond the last branch).
//
// In the ID's bits: outcomes 0–1 stay in place, word-PC bits 0–7 (ID
// bits 6–13) move down to hash bits 2–9, and outcomes 2–5 move up two
// to XOR into hash bits 4–7. The three masked terms are the whole
// hash, which keeps it cheap enough to inline where a prediction is
// presented.
func (id ID) Hash() HashedID {
	x := uint32(id)
	return HashedID(x&3 | x>>(idBranchBits-2)&0x3fc ^ x<<2&0xf0)
}

// Branch records one control-flow instruction inside a trace, as needed
// by the sequential multiple-branch baseline predictor (§5.1).
type Branch struct {
	PC     uint32
	Ctrl   isa.CtrlClass
	Taken  bool   // conditional branches only
	Target uint32 // actual successor PC
}

// MemRef records one data-memory access inside a trace, consumed by
// the engine's data-cache model.
type MemRef struct {
	Addr  uint32
	Store bool
}

// Trace is one selected trace plus the metadata every front-end
// component consumes.
type Trace struct {
	ID        ID
	Hash      HashedID
	StartPC   uint32
	Len       int  // instructions in the trace
	NumBr     int  // embedded conditional branches
	Calls     int  // procedure calls contained in the trace
	EndsInRet bool // last instruction is a return
	EndsHalt  bool // trace ended because the program halted
	NextPC    uint32

	// Branches lists every control-flow instruction in the trace, in
	// order (conditional branches, jumps, calls, returns). The backing
	// array is reused by the Selector; copy it to retain past the
	// callback.
	Branches []Branch

	// Mems lists the trace's data-memory accesses in order. Reused like
	// Branches.
	Mems []MemRef
}

// NetCalls is the trace's call count adjusted for a terminal return:
// "a field is added to each trace indicating the number of calls it
// contains; if the trace ends in a return, the number of calls is
// decremented by one" (§3.4).
func (t *Trace) NetCalls() int {
	n := t.Calls
	if t.EndsInRet {
		n--
	}
	return n
}

// Config controls trace selection limits.
type Config struct {
	MaxLen      int // maximum instructions per trace
	MaxBranches int // maximum embedded conditional branches

	// BreakOnLoopClosure additionally ends a trace (once at least half
	// full) after a backward taken branch, so loop bodies map to stable
	// trace identifiers — a variant of the paper's "beginning and ending
	// on basic block boundaries" heuristic. It trades shorter traces and
	// invisible fixed-trip-count loop exits for phase-stable loop IDs;
	// off by default, studied by the trace-selection ablation.
	BreakOnLoopClosure bool
}

// DefaultConfig returns the paper's selection limits.
func DefaultConfig() Config {
	return Config{MaxLen: DefaultMaxLen, MaxBranches: DefaultMaxBranches}
}

func (c Config) validate() error {
	if c.MaxLen < 1 {
		return fmt.Errorf("trace: MaxLen %d < 1", c.MaxLen)
	}
	if c.MaxBranches < 0 || c.MaxBranches > idBranchBits {
		return fmt.Errorf("trace: MaxBranches %d outside [0, %d]", c.MaxBranches, idBranchBits)
	}
	return nil
}

// Selector partitions a retired-instruction stream into traces.
type Selector struct {
	cfg  Config
	emit func(*Trace)

	cur      Trace
	building bool
	outcomes uint8

	traces uint64
	instrs uint64
}

// NewSelector returns a selector that invokes emit for every completed
// trace. The *Trace passed to emit (including its Branches slice) is
// reused; emit must copy whatever it retains.
func NewSelector(cfg Config, emit func(*Trace)) (*Selector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if emit == nil {
		return nil, fmt.Errorf("trace: nil emit callback")
	}
	return &Selector{cfg: cfg, emit: emit}, nil
}

// Feed adds one retired instruction to the trace under construction,
// emitting a completed trace when a selection limit is reached.
func (s *Selector) Feed(r sim.Retired) {
	if !s.building {
		s.cur = Trace{StartPC: r.PC, Branches: s.cur.Branches[:0], Mems: s.cur.Mems[:0]}
		s.outcomes = 0
		s.building = true
	}
	s.cur.Len++
	s.instrs++
	if r.Mem != sim.MemNone {
		s.cur.Mems = append(s.cur.Mems, MemRef{Addr: r.MemAddr, Store: r.Mem == sim.MemStore})
	}

	end := false
	switch r.Ctrl {
	case isa.CtrlCondDir:
		s.cur.Branches = append(s.cur.Branches, Branch{PC: r.PC, Ctrl: r.Ctrl, Taken: r.Taken, Target: r.NextPC})
		if r.Taken {
			s.outcomes |= 1 << s.cur.NumBr
		}
		s.cur.NumBr++
		if s.cur.NumBr >= s.cfg.MaxBranches {
			end = true
		}
		if s.cfg.BreakOnLoopClosure && r.Taken && r.NextPC <= r.PC && s.cur.Len >= s.cfg.MaxLen/2 {
			end = true
		}
	case isa.CtrlJumpDir:
		s.cur.Branches = append(s.cur.Branches, Branch{PC: r.PC, Ctrl: r.Ctrl, Taken: true, Target: r.NextPC})
		if s.cfg.BreakOnLoopClosure && r.NextPC <= r.PC && s.cur.Len >= s.cfg.MaxLen/2 {
			end = true
		}
	case isa.CtrlCallDir, isa.CtrlCallInd:
		s.cur.Branches = append(s.cur.Branches, Branch{PC: r.PC, Ctrl: r.Ctrl, Taken: true, Target: r.NextPC})
		s.cur.Calls++
		if r.Ctrl.Indirect() {
			end = true
		}
	case isa.CtrlJumpInd:
		s.cur.Branches = append(s.cur.Branches, Branch{PC: r.PC, Ctrl: r.Ctrl, Taken: true, Target: r.NextPC})
		end = true
	case isa.CtrlReturn:
		s.cur.Branches = append(s.cur.Branches, Branch{PC: r.PC, Ctrl: r.Ctrl, Taken: true, Target: r.NextPC})
		s.cur.EndsInRet = true
		end = true
	case isa.CtrlHalt:
		s.cur.EndsHalt = true
		end = true
	}
	if s.cur.Len >= s.cfg.MaxLen {
		end = true
	}
	if end {
		s.finish(r.NextPC)
	}
}

// Flush emits any partially built trace (used at the end of a stream
// that did not terminate in HALT, e.g. an instruction-count limit).
func (s *Selector) Flush() {
	if s.building && s.cur.Len > 0 {
		s.finish(0)
	}
}

func (s *Selector) finish(nextPC uint32) {
	s.cur.NextPC = nextPC
	s.cur.ID = MakeID(s.cur.StartPC, s.outcomes)
	s.cur.Hash = s.cur.ID.Hash()
	s.traces++
	s.building = false
	s.emit(&s.cur)
}

// Traces reports the number of traces emitted so far.
func (s *Selector) Traces() uint64 { return s.traces }

// Instrs reports the number of instructions consumed so far.
func (s *Selector) Instrs() uint64 { return s.instrs }
