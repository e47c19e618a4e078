package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pathtrace/internal/asm"
	"pathtrace/internal/isa"
	"pathtrace/internal/sim"
)

func TestIDRoundTrip(t *testing.T) {
	id := MakeID(0x0001_0040, 0b101101)
	if got := id.StartPC(); got != 0x0001_0040 {
		t.Errorf("StartPC = %#x", got)
	}
	if got := id.Outcomes(); got != 0b101101 {
		t.Errorf("Outcomes = %#b", got)
	}
	if got, want := id.String(), "0x10040:TNTTNT"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestIDStringSingleAlloc(t *testing.T) {
	// The formatting buffer must stay on the stack: the only allocation
	// allowed is the returned string itself.
	id := MakeID(0xfffffffc, 0b111111)
	var sink string
	allocs := testing.AllocsPerRun(100, func() { sink = id.String() })
	if allocs > 1 {
		t.Errorf("ID.String allocates %v times, want <= 1", allocs)
	}
	_ = sink
}

func TestIDIgnoresHighPCBits(t *testing.T) {
	// Only 30 bits of word address are kept (32-bit byte PC).
	a := MakeID(0xfffffffc, 0)
	if a.StartPC() != 0xfffffffc {
		t.Errorf("StartPC = %#x", a.StartPC())
	}
}

func TestHashLayout(t *testing.T) {
	// Per §3.2: h[1:0] = outcomes of first two branches; h[3:2] = low two
	// bits of the word PC; h[9:4] = next six PC bits XOR remaining outcomes.
	pc := uint32(0b1010_1101_00) << 2 // word addr 0b1010110100
	outs := uint8(0b11_01_10)         // br0=0, br1=1, rest 0b1101
	id := MakeID(pc, outs)
	h := uint32(id.Hash())
	if got := h & 3; got != 0b10 {
		t.Errorf("h[1:0] = %#b, want 0b10", got)
	}
	if got := h >> 2 & 3; got != 0b00 {
		t.Errorf("h[3:2] = %#b, want 0b00 (low word-PC bits)", got)
	}
	wantUpper := (uint32(0b10101101) & 0x3f) ^ 0b1101
	if got := h >> 4; got != wantUpper {
		t.Errorf("h[9:4] = %#b, want %#b", got, wantUpper)
	}
}

// TestHashMatchesFields checks Hash against its definition field by
// field, for every value of the 14 ID bits the hash reads.
func TestHashMatchesFields(t *testing.T) {
	for x := uint32(0); x < 1<<14; x++ {
		pcw, outs := x>>idBranchBits, x&0x3f
		want := outs&3 | (pcw&3)<<2 | ((pcw>>2&0x3f)^(outs>>2))<<4
		// Bits above the 14 do not reach the hash.
		if got := uint32((ID(x) | 0xabc<<14).Hash()); got != want {
			t.Fatalf("Hash(%#x) = %#x, want %#x", x, got, want)
		}
	}
}

func TestHashRangeQuick(t *testing.T) {
	f := func(pc uint32, outs uint8) bool {
		h := MakeID(pc&^3, outs&0x3f).Hash()
		return h < 1<<HashBits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashDeterministic(t *testing.T) {
	f := func(pc uint32, outs uint8) bool {
		id := MakeID(pc, outs)
		return id.Hash() == id.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mkRetired builds a straight-line retired record.
func seqInstr(pc uint32) sim.Retired {
	return sim.Retired{PC: pc, Op: isa.ADD, Ctrl: isa.CtrlNone, NextPC: pc + 4}
}

func condBr(pc uint32, taken bool, target uint32) sim.Retired {
	next := pc + 4
	if taken {
		next = target
	}
	return sim.Retired{PC: pc, Op: isa.BNE, Ctrl: isa.CtrlCondDir, Taken: taken, NextPC: next}
}

func collect(t *testing.T, cfg Config) (*Selector, *[]Trace) {
	t.Helper()
	var out []Trace
	s, err := NewSelector(cfg, func(tr *Trace) {
		cp := *tr
		cp.Branches = append([]Branch(nil), tr.Branches...)
		out = append(out, cp)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The slice header escapes; return a pointer so the caller sees appends.
	return s, &out
}

func TestSelectorMaxLen(t *testing.T) {
	s, out := collect(t, DefaultConfig())
	pc := uint32(0x10000)
	for i := 0; i < 40; i++ {
		s.Feed(seqInstr(pc))
		pc += 4
	}
	s.Flush()
	traces := *out
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want 3", len(traces))
	}
	if traces[0].Len != 16 || traces[1].Len != 16 || traces[2].Len != 8 {
		t.Errorf("lengths = %d,%d,%d", traces[0].Len, traces[1].Len, traces[2].Len)
	}
	if traces[1].StartPC != 0x10000+16*4 {
		t.Errorf("trace 1 start = %#x", traces[1].StartPC)
	}
	if traces[0].NextPC != traces[1].StartPC {
		t.Errorf("NextPC chain broken: %#x vs %#x", traces[0].NextPC, traces[1].StartPC)
	}
	if traces[0].ID != MakeID(0x10000, 0) {
		t.Errorf("ID = %v", traces[0].ID)
	}
}

func TestSelectorBranchLimitAndOutcomes(t *testing.T) {
	s, out := collect(t, DefaultConfig())
	pc := uint32(0x10000)
	// 7 conditional branches, alternating T/N; 6th ends the trace.
	for i := 0; i < 7; i++ {
		taken := i%2 == 0
		r := condBr(pc, taken, pc+4) // target == fallthrough; fine for naming
		s.Feed(r)
		pc = r.NextPC
	}
	s.Flush()
	traces := *out
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	if traces[0].NumBr != 6 || traces[0].Len != 6 {
		t.Errorf("trace 0: NumBr=%d Len=%d", traces[0].NumBr, traces[0].Len)
	}
	// Outcomes: T,N,T,N,T,N => bits 0,2,4 set = 0b010101.
	if traces[0].ID.Outcomes() != 0b010101 {
		t.Errorf("outcomes = %#b, want 0b010101", traces[0].ID.Outcomes())
	}
	if len(traces[0].Branches) != 6 {
		t.Errorf("branch records = %d", len(traces[0].Branches))
	}
}

func TestSelectorIndirectTerminates(t *testing.T) {
	s, out := collect(t, DefaultConfig())
	s.Feed(seqInstr(0x10000))
	s.Feed(sim.Retired{PC: 0x10004, Op: isa.JR, Ctrl: isa.CtrlJumpInd, NextPC: 0x20000})
	s.Feed(seqInstr(0x20000))
	s.Feed(sim.Retired{PC: 0x20004, Op: isa.JALR, Ctrl: isa.CtrlCallInd, NextPC: 0x30000})
	s.Feed(sim.Retired{PC: 0x30000, Op: isa.RET, Ctrl: isa.CtrlReturn, NextPC: 0x20008})
	s.Flush()
	traces := *out
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want 3", len(traces))
	}
	if traces[0].Len != 2 || traces[0].EndsInRet {
		t.Errorf("trace 0 = %+v", traces[0])
	}
	if traces[1].Calls != 1 || traces[1].NetCalls() != 1 {
		t.Errorf("trace 1 calls = %d net %d", traces[1].Calls, traces[1].NetCalls())
	}
	if !traces[2].EndsInRet || traces[2].NetCalls() != -1 {
		t.Errorf("trace 2 = %+v net=%d", traces[2], traces[2].NetCalls())
	}
}

func TestSelectorCallAndReturnSameTrace(t *testing.T) {
	s, out := collect(t, DefaultConfig())
	// call then return inside one trace: net calls 0.
	s.Feed(sim.Retired{PC: 0x10000, Op: isa.JAL, Ctrl: isa.CtrlCallDir, NextPC: 0x20000})
	s.Feed(sim.Retired{PC: 0x20000, Op: isa.RET, Ctrl: isa.CtrlReturn, NextPC: 0x10004})
	s.Flush()
	traces := *out
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Calls != 1 || !tr.EndsInRet || tr.NetCalls() != 0 {
		t.Errorf("trace = %+v net=%d", tr, tr.NetCalls())
	}
	// Direct call is embedded mid-trace unless indirect: here the RET ended it.
	if tr.Len != 2 {
		t.Errorf("Len = %d, want 2", tr.Len)
	}
}

func TestSelectorHaltEndsTrace(t *testing.T) {
	s, out := collect(t, DefaultConfig())
	s.Feed(seqInstr(0x10000))
	s.Feed(sim.Retired{PC: 0x10004, Op: isa.HALT, Ctrl: isa.CtrlHalt, NextPC: 0x10008})
	traces := *out
	if len(traces) != 1 || !traces[0].EndsHalt {
		t.Fatalf("traces = %+v", traces)
	}
}

func TestSelectorConfigValidation(t *testing.T) {
	if _, err := NewSelector(Config{MaxLen: 0, MaxBranches: 6}, func(*Trace) {}); err == nil {
		t.Error("MaxLen 0 accepted")
	}
	if _, err := NewSelector(Config{MaxLen: 16, MaxBranches: 7}, func(*Trace) {}); err == nil {
		t.Error("MaxBranches 7 accepted")
	}
	if _, err := NewSelector(DefaultConfig(), nil); err == nil {
		t.Error("nil emit accepted")
	}
}

// Property: trace selection exactly partitions the instruction stream.
func TestSelectorPartitionsStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		var fed []sim.Retired
		pc := uint32(0x10000)
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			var r sim.Retired
			switch rng.Intn(6) {
			case 0:
				r = condBr(pc, rng.Intn(2) == 0, pc+uint32(rng.Intn(64))*4+4)
			case 1:
				r = sim.Retired{PC: pc, Op: isa.JAL, Ctrl: isa.CtrlCallDir, NextPC: uint32(0x10000 + rng.Intn(1024)*4)}
			case 2:
				r = sim.Retired{PC: pc, Op: isa.RET, Ctrl: isa.CtrlReturn, NextPC: uint32(0x10000 + rng.Intn(1024)*4)}
			default:
				r = seqInstr(pc)
			}
			fed = append(fed, r)
			pc = r.NextPC
		}
		var total, maxLen, maxBr int
		var firstPCs []uint32
		s, err := NewSelector(DefaultConfig(), func(tr *Trace) {
			total += tr.Len
			if tr.Len > maxLen {
				maxLen = tr.Len
			}
			if tr.NumBr > maxBr {
				maxBr = tr.NumBr
			}
			firstPCs = append(firstPCs, tr.StartPC)
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range fed {
			s.Feed(r)
		}
		s.Flush()
		if total != len(fed) {
			t.Fatalf("partition covers %d of %d instructions", total, len(fed))
		}
		if maxLen > DefaultMaxLen || maxBr > DefaultMaxBranches {
			t.Fatalf("limits exceeded: len %d br %d", maxLen, maxBr)
		}
		if len(firstPCs) == 0 || firstPCs[0] != fed[0].PC {
			t.Fatalf("first trace starts at %#x, want %#x", firstPCs[0], fed[0].PC)
		}
		if s.Instrs() != uint64(len(fed)) {
			t.Fatalf("Instrs() = %d, want %d", s.Instrs(), len(fed))
		}
	}
}

// Integration: select traces from a real simulated program and check
// structural invariants.
func TestSelectorOnRealProgram(t *testing.T) {
	prog := asm.MustAssemble(`
main:   li s0, 50
outer:  li t0, 5
inner:  addi t0, t0, -1
        bnez t0, inner
        jal work
        addi s0, s0, -1
        bnez s0, outer
        halt
work:   li t1, 3
w1:     addi t1, t1, -1
        bnez t1, w1
        ret
`)
	c := sim.MustNew(prog)
	var traces []Trace
	s, err := NewSelector(DefaultConfig(), func(tr *Trace) {
		cp := *tr
		cp.Branches = append([]Branch(nil), tr.Branches...)
		traces = append(traces, cp)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0, s.Feed); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if len(traces) < 10 {
		t.Fatalf("only %d traces", len(traces))
	}
	var instrs int
	for i, tr := range traces {
		instrs += tr.Len
		if tr.Len < 1 || tr.Len > DefaultMaxLen {
			t.Errorf("trace %d bad length %d", i, tr.Len)
		}
		if tr.NumBr > DefaultMaxBranches {
			t.Errorf("trace %d has %d branches", i, tr.NumBr)
		}
		// Indirect control flow only at trace end.
		for j, b := range tr.Branches {
			if b.Ctrl.Indirect() && j != len(tr.Branches)-1 {
				t.Errorf("trace %d: indirect branch mid-trace", i)
			}
		}
		if i > 0 && traces[i-1].NextPC != tr.StartPC {
			t.Errorf("trace %d start %#x does not chain from %#x", i, tr.StartPC, traces[i-1].NextPC)
		}
		if tr.ID != MakeID(tr.StartPC, tr.ID.Outcomes()) {
			t.Errorf("trace %d inconsistent ID", i)
		}
		if tr.Hash != tr.ID.Hash() {
			t.Errorf("trace %d inconsistent hash", i)
		}
	}
	if instrs != int(c.InstrCount) {
		t.Errorf("traces cover %d instructions, CPU retired %d", instrs, c.InstrCount)
	}
	if !traces[len(traces)-1].EndsHalt {
		t.Error("last trace does not end in halt")
	}
}

func TestSelectorRecordsMemoryReferences(t *testing.T) {
	prog := asm.MustAssemble(`
        .data
buf:    .space 64
        .text
main:   la   t0, buf
        li   t1, 5
loop:   sw   t1, 0(t0)
        lw   t2, 0(t0)
        lbu  t3, 1(t0)
        addi t0, t0, 4
        addi t1, t1, -1
        bnez t1, loop
        halt
`)
	c := sim.MustNew(prog)
	var loads, stores int
	var lastAddrOK = true
	s, err := NewSelector(DefaultConfig(), func(tr *Trace) {
		for _, m := range tr.Mems {
			if m.Store {
				stores++
			} else {
				loads++
			}
			if m.Addr < 0x0010_0000 || m.Addr > 0x0010_0040+4 {
				lastAddrOK = false
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0, s.Feed); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	// 5 iterations: 1 store + 2 loads each.
	if stores != 5 || loads != 10 {
		t.Errorf("stores=%d loads=%d, want 5/10", stores, loads)
	}
	if !lastAddrOK {
		t.Error("memory reference address outside the buffer")
	}
}
