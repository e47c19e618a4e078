// Package sim executes PT32 programs and produces the dynamic
// retired-instruction stream that the trace selector and all predictors
// consume.
//
// The simulator is purely functional (no timing): it plays the role of
// the SimpleScalar functional simulator in the original paper, feeding
// "a dynamic stream of instructions ... to the prediction simulator".
//
// There is one interpreter, (*CPU).exec. It fetches through a pointer
// into the predecoded text and writes each retirement record in place.
// RunContext loops on it with one record for the whole run, which is
// how stream capture drives it; Step wraps it for one instruction at a
// time. Both see the same records, faults and halts.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pathtrace/internal/asm"
	"pathtrace/internal/isa"
)

// MemKind classifies an instruction's data-memory access.
type MemKind uint8

const (
	MemNone MemKind = iota
	MemLoad
	MemStore
)

// Retired describes one retired instruction. It carries exactly the
// information the front-end models need: where the instruction was,
// what kind of control transfer it performed, where control went, and
// any data-memory access (for the engine's cache models).
type Retired struct {
	PC      uint32
	Op      isa.Opcode
	Ctrl    isa.CtrlClass
	Taken   bool   // conditional branches only
	NextPC  uint32 // actual successor PC
	Mem     MemKind
	MemAddr uint32
}

// ErrHalted is returned by Step once the program has executed HALT.
var ErrHalted = errors.New("sim: program halted")

// Fault describes a run-time error (bad memory access, bad PC, ...).
type Fault struct {
	PC  uint32
	Msg string
}

func (f *Fault) Error() string { return fmt.Sprintf("sim: fault at pc %#x: %s", f.PC, f.Msg) }

// CPU is the architectural state of a running PT32 program.
type CPU struct {
	PC   uint32
	Regs [isa.NumRegs]uint32

	// Output collects values emitted by OUT, so workloads can prove
	// they computed something real.
	Output []uint32

	// InstrCount is the number of instructions retired so far.
	InstrCount uint64

	prog   *asm.Program
	text   []isa.Instr // predecoded text segment
	mem    []byte      // flat memory image, addresses [0, StackTop)
	halted bool
}

// textCache shares predecoded text segments between CPUs running the
// same program (keyed by *asm.Program identity). Decoded text is
// read-only after construction, so sharing is safe; re-running each
// workload for every experiment previously re-decoded its whole text
// segment each time.
var textCache sync.Map // *asm.Program -> []isa.Instr

func decodeText(p *asm.Program) ([]isa.Instr, error) {
	if text, ok := textCache.Load(p); ok {
		return text.([]isa.Instr), nil
	}
	text := make([]isa.Instr, len(p.Text))
	for i, w := range p.Text {
		in, err := isa.Decode(w)
		if err != nil {
			return nil, fmt.Errorf("sim: text[%d]: %w", i, err)
		}
		text[i] = in
	}
	actual, _ := textCache.LoadOrStore(p, text)
	return actual.([]isa.Instr), nil
}

// New creates a CPU with the program loaded and architectural state
// initialised: PC at the entry point, sp just below the stack top, gp at
// the data base.
func New(p *asm.Program) (*CPU, error) {
	c := &CPU{prog: p}
	text, err := decodeText(p)
	if err != nil {
		return nil, err
	}
	c.text = text
	c.mem = make([]byte, p.StackTop)
	copy(c.mem[p.DataBase:], p.Data)
	c.Reset()
	return c, nil
}

// MustNew is New for known-good programs; it panics on error.
func MustNew(p *asm.Program) *CPU {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset restores the initial architectural state without reloading the
// program image. Note that data memory is NOT restored; create a fresh
// CPU to re-run a program from scratch.
func (c *CPU) Reset() {
	c.PC = c.prog.Entry
	for i := range c.Regs {
		c.Regs[i] = 0
	}
	c.Regs[isa.SP] = c.prog.StackTop - 16
	c.Regs[isa.GP] = c.prog.DataBase
	c.Output = nil
	c.InstrCount = 0
	c.halted = false
}

// Halted reports whether the program has executed HALT.
func (c *CPU) Halted() bool { return c.halted }

// Program returns the loaded program.
func (c *CPU) Program() *asm.Program { return c.prog }

func (c *CPU) fault(format string, args ...any) error {
	c.halted = true
	return &Fault{PC: c.PC, Msg: fmt.Sprintf(format, args...)}
}

func (c *CPU) loadWord(addr uint32) (uint32, error) {
	if addr%4 != 0 {
		return 0, c.fault("unaligned word load at %#x", addr)
	}
	if int(addr)+4 > len(c.mem) {
		return 0, c.fault("word load outside memory at %#x", addr)
	}
	return uint32(c.mem[addr]) | uint32(c.mem[addr+1])<<8 |
		uint32(c.mem[addr+2])<<16 | uint32(c.mem[addr+3])<<24, nil
}

func (c *CPU) storeWord(addr, v uint32) error {
	if addr%4 != 0 {
		return c.fault("unaligned word store at %#x", addr)
	}
	if int(addr)+4 > len(c.mem) {
		return c.fault("word store outside memory at %#x", addr)
	}
	c.mem[addr] = byte(v)
	c.mem[addr+1] = byte(v >> 8)
	c.mem[addr+2] = byte(v >> 16)
	c.mem[addr+3] = byte(v >> 24)
	return nil
}

func (c *CPU) loadByte(addr uint32) (byte, error) {
	if int(addr) >= len(c.mem) {
		return 0, c.fault("byte load outside memory at %#x", addr)
	}
	return c.mem[addr], nil
}

func (c *CPU) storeByte(addr uint32, v byte) error {
	if int(addr) >= len(c.mem) {
		return c.fault("byte store outside memory at %#x", addr)
	}
	c.mem[addr] = v
	return nil
}

func (c *CPU) setReg(r isa.Reg, v uint32) {
	if r != isa.Zero {
		c.Regs[r] = v
	}
}

// Step executes one instruction and returns its retirement record.
// After HALT has retired, further calls return ErrHalted. Step is a
// thin wrapper over exec, the interpreter RunContext also runs.
func (c *CPU) Step() (Retired, error) {
	if c.halted {
		return Retired{}, ErrHalted
	}
	var r Retired
	if err := c.exec(&r); err != nil {
		return Retired{}, err
	}
	return r, nil
}

// exec is the interpreter: it executes the instruction at PC and
// writes its retirement record into *r in place, so a run loop moves
// no record through return values. Callers check halted first. On a
// fault the CPU halts, the instruction does not retire, and *r is
// unspecified.
func (c *CPU) exec(r *Retired) error {
	pc := c.PC
	i := uint(pc-c.prog.TextBase) >> 2
	if pc%4 != 0 || i >= uint(len(c.text)) {
		return c.fault("instruction fetch outside text segment")
	}
	in := &c.text[i]
	next := pc + 4
	*r = Retired{PC: pc, Op: in.Op, Ctrl: in.Op.Ctrl()}

	rs := c.Regs[in.Rs]
	rt := c.Regs[in.Rt]
	switch in.Op {
	case isa.ADD:
		c.setReg(in.Rd, rs+rt)
	case isa.SUB:
		c.setReg(in.Rd, rs-rt)
	case isa.MUL:
		c.setReg(in.Rd, rs*rt)
	case isa.DIV:
		if rt == 0 {
			c.setReg(in.Rd, 0)
		} else {
			c.setReg(in.Rd, uint32(int32(rs)/int32(rt)))
		}
	case isa.REM:
		if rt == 0 {
			c.setReg(in.Rd, 0)
		} else {
			c.setReg(in.Rd, uint32(int32(rs)%int32(rt)))
		}
	case isa.AND:
		c.setReg(in.Rd, rs&rt)
	case isa.OR:
		c.setReg(in.Rd, rs|rt)
	case isa.XOR:
		c.setReg(in.Rd, rs^rt)
	case isa.NOR:
		c.setReg(in.Rd, ^(rs | rt))
	case isa.SLT:
		c.setReg(in.Rd, b2u(int32(rs) < int32(rt)))
	case isa.SLTU:
		c.setReg(in.Rd, b2u(rs < rt))
	case isa.SLLV:
		c.setReg(in.Rd, rs<<(rt&31))
	case isa.SRLV:
		c.setReg(in.Rd, rs>>(rt&31))
	case isa.SRAV:
		c.setReg(in.Rd, uint32(int32(rs)>>(rt&31)))

	case isa.ADDI:
		c.setReg(in.Rt, rs+uint32(in.Imm))
	case isa.ANDI:
		c.setReg(in.Rt, rs&(uint32(in.Imm)&0xffff))
	case isa.ORI:
		c.setReg(in.Rt, rs|(uint32(in.Imm)&0xffff))
	case isa.XORI:
		c.setReg(in.Rt, rs^(uint32(in.Imm)&0xffff))
	case isa.SLTI:
		c.setReg(in.Rt, b2u(int32(rs) < in.Imm))
	case isa.SLTIU:
		c.setReg(in.Rt, b2u(rs < uint32(in.Imm)))
	case isa.SLL:
		c.setReg(in.Rt, rs<<(uint32(in.Imm)&31))
	case isa.SRL:
		c.setReg(in.Rt, rs>>(uint32(in.Imm)&31))
	case isa.SRA:
		c.setReg(in.Rt, uint32(int32(rs)>>(uint32(in.Imm)&31)))
	case isa.LUI:
		c.setReg(in.Rt, uint32(in.Imm)<<16)

	case isa.LW:
		addr := rs + uint32(in.Imm)
		v, err := c.loadWord(addr)
		if err != nil {
			return err
		}
		c.setReg(in.Rt, v)
		r.Mem, r.MemAddr = MemLoad, addr
	case isa.LB:
		addr := rs + uint32(in.Imm)
		v, err := c.loadByte(addr)
		if err != nil {
			return err
		}
		c.setReg(in.Rt, uint32(int32(int8(v))))
		r.Mem, r.MemAddr = MemLoad, addr
	case isa.LBU:
		addr := rs + uint32(in.Imm)
		v, err := c.loadByte(addr)
		if err != nil {
			return err
		}
		c.setReg(in.Rt, uint32(v))
		r.Mem, r.MemAddr = MemLoad, addr
	case isa.SW:
		addr := rs + uint32(in.Imm)
		if err := c.storeWord(addr, rt); err != nil {
			return err
		}
		r.Mem, r.MemAddr = MemStore, addr
	case isa.SB:
		addr := rs + uint32(in.Imm)
		if err := c.storeByte(addr, byte(rt)); err != nil {
			return err
		}
		r.Mem, r.MemAddr = MemStore, addr

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		var taken bool
		switch in.Op {
		case isa.BEQ:
			taken = rs == rt
		case isa.BNE:
			taken = rs != rt
		case isa.BLT:
			taken = int32(rs) < int32(rt)
		case isa.BGE:
			taken = int32(rs) >= int32(rt)
		case isa.BLTU:
			taken = rs < rt
		case isa.BGEU:
			taken = rs >= rt
		}
		r.Taken = taken
		if taken {
			next = in.BranchTarget(pc)
		}

	case isa.J:
		next = in.Target
	case isa.JAL:
		c.setReg(isa.RA, pc+4)
		next = in.Target
	case isa.JR:
		next = rs
	case isa.JALR:
		c.setReg(in.Rd, pc+4)
		next = rs
	case isa.RET:
		next = c.Regs[isa.RA]

	case isa.HALT:
		c.halted = true
	case isa.OUT:
		c.Output = append(c.Output, rs)
	case isa.NOP:
		// nothing
	default:
		return c.fault("unimplemented opcode %v", in.Op)
	}

	c.PC = next
	c.InstrCount++
	r.NextPC = next
	return nil
}

// Run executes up to limit instructions (0 = no limit), invoking visit
// for each retired instruction. It returns nil when the program halts
// or the limit is reached, and the fault otherwise.
func (c *CPU) Run(limit uint64, visit func(Retired)) error {
	return c.RunContext(nil, limit, visit)
}

// watchdogStride is how many instructions retire between context
// checks in RunContext — the instruction-step watchdog granularity.
// Small enough that a deadline stops a runaway workload within
// microseconds, large enough that the check is free.
const watchdogStride = 4096

// RunContext is Run with an instruction-step watchdog: every
// watchdogStride retired instructions it checks ctx, and aborts with a
// wrapped ctx.Err() when the context is done. A nil ctx disables the
// watchdog. This is what lets the experiment harness put a hard
// deadline on a runaway (or merely oversized) workload without leaking
// the goroutine that runs it.
func (c *CPU) RunContext(ctx context.Context, limit uint64, visit func(Retired)) error {
	var r Retired
	check := uint64(0) // instructions until the next watchdog poll
	for limit == 0 || c.InstrCount < limit {
		if ctx != nil && check == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: run aborted at %d instructions: %w", c.InstrCount, err)
			}
			check = watchdogStride
		}
		check--
		if c.halted {
			return nil // halted before this call
		}
		if err := c.exec(&r); err != nil {
			return err
		}
		if visit != nil {
			visit(r)
		}
		if c.halted {
			return nil
		}
	}
	return nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
