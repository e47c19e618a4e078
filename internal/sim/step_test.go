package sim

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pathtrace/internal/asm"
)

// stepAll steps c until Step returns an error and returns every record
// it produced along with that error.
func stepAll(t *testing.T, c *CPU) ([]Retired, error) {
	t.Helper()
	var recs []Retired
	for i := 0; i < 1_000_000; i++ {
		r, err := c.Step()
		if err != nil {
			if r != (Retired{}) {
				t.Errorf("Step returned %+v beside error %v", r, err)
			}
			return recs, err
		}
		recs = append(recs, r)
	}
	t.Fatal("program did not stop within 1M steps")
	return nil, nil
}

// runAll runs c to completion and returns every record visited.
func runAll(c *CPU) ([]Retired, error) {
	var recs []Retired
	err := c.RunContext(nil, 0, func(r Retired) { recs = append(recs, r) })
	return recs, err
}

// TestStepMatchesRun: Step and RunContext are two loops over one
// interpreter, so stepping a program to ErrHalted yields exactly the
// records, output and instruction count that RunContext's visit
// callback sees.
func TestStepMatchesRun(t *testing.T) {
	srcs := map[string]string{
		"memory": `
        .data
w:      .word 7, -3
        .text
main:   lw  t0, 0(gp)
        sw  t0, 8(gp)
        lb  t1, 4(gp)
        lbu t2, 5(gp)
        sb  t0, 10(gp)
        div t3, t0, t1
        rem t4, t0, t1
        out t3
        out t4
        jal f
        halt
f:      la  t5, g
        jalr t6, t5
        ret
g:      jr  t6
`,
	}
	for _, name := range []string{"gcd.s", "sieve.s", "sort.s"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "asm", name))
		if err != nil {
			t.Fatal(err)
		}
		srcs[name] = string(src)
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			p := asm.MustAssemble(src)
			stepped, ran := MustNew(p), MustNew(p)
			srecs, err := stepAll(t, stepped)
			if !errors.Is(err, ErrHalted) {
				t.Fatalf("Step stopped with %v, want ErrHalted", err)
			}
			rrecs, err := runAll(ran)
			if err != nil {
				t.Fatalf("RunContext: %v", err)
			}
			if !reflect.DeepEqual(srecs, rrecs) {
				t.Errorf("Step retired %d records, RunContext visited %d; sequences differ", len(srecs), len(rrecs))
			}
			if !reflect.DeepEqual(stepped.Output, ran.Output) {
				t.Errorf("Output: Step %v, RunContext %v", stepped.Output, ran.Output)
			}
			if stepped.InstrCount != ran.InstrCount || stepped.InstrCount != uint64(len(srecs)) {
				t.Errorf("InstrCount: Step %d, RunContext %d, records %d", stepped.InstrCount, ran.InstrCount, len(srecs))
			}
			if _, err := ran.Step(); !errors.Is(err, ErrHalted) {
				t.Errorf("Step after HALT = %v, want ErrHalted", err)
			}
			if _, err := stepped.Step(); !errors.Is(err, ErrHalted) {
				t.Errorf("second Step after HALT = %v, want ErrHalted", err)
			}
		})
	}
}

// TestStepMatchesRunOnFault: a faulting instruction returns an equal
// *Fault from Step and RunContext, retires nothing, and is never visited.
func TestStepMatchesRunOnFault(t *testing.T) {
	cases := map[string]string{
		"jump outside text":    "main: li t0, 0x500000\nout t0\njr t0",
		"unaligned jump":       "main: li t0, 0x10002\njr t0",
		"unaligned load":       "main: li t0, 0x100002\nout t0\nlw t1, 0(t0)",
		"store outside memory": "main: li t0, 0x7fffffc\nsw t1, 4(t0)",
		"byte load outside":    "main: li t0, 0x7ffffff\nlbu t1, 1(t0)",
		"byte store outside":   "main: li t0, 0x7ffffff\nsb t1, 1(t0)",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			p := asm.MustAssemble(src)
			stepped, ran := MustNew(p), MustNew(p)
			srecs, serr := stepAll(t, stepped)
			rrecs, rerr := runAll(ran)
			var sf, rf *Fault
			if !errors.As(serr, &sf) || !errors.As(rerr, &rf) {
				t.Fatalf("errors: Step %v, RunContext %v; want *Fault from both", serr, rerr)
			}
			if *sf != *rf {
				t.Errorf("faults differ: Step %+v, RunContext %+v", *sf, *rf)
			}
			if !reflect.DeepEqual(srecs, rrecs) {
				t.Errorf("records differ: Step %+v, RunContext %+v", srecs, rrecs)
			}
			if n := uint64(len(rrecs)); ran.InstrCount != n || stepped.InstrCount != n {
				t.Errorf("InstrCount: Step %d, RunContext %d, want %d (the fault retires nothing)",
					stepped.InstrCount, ran.InstrCount, n)
			}
			if len(rrecs) > 0 && rrecs[len(rrecs)-1].NextPC != rf.PC {
				t.Errorf("last visited record %+v does not lead to the fault at %#x", rrecs[len(rrecs)-1], rf.PC)
			}
			if !reflect.DeepEqual(stepped.Output, ran.Output) {
				t.Errorf("Output: Step %v, RunContext %v", stepped.Output, ran.Output)
			}
			for _, c := range []*CPU{stepped, ran} {
				if _, err := c.Step(); !errors.Is(err, ErrHalted) {
					t.Errorf("Step after fault = %v, want ErrHalted", err)
				}
			}
		})
	}
}
