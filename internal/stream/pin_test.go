package stream

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pathtrace/internal/trace"
	"pathtrace/internal/workload"
)

// TestCaptureBytesPinned pins what Capture records, independently of
// the simulator: the SHA-256 of each stream's .ntps encoding plus its
// instruction and trace counts. TestReplayMatchesFreshSimulation
// compares a capture with a live simulation that runs the same
// interpreter, so a bug in the interpreter, or in how capture lays out
// and rebases its flat arrays, would pass that test and fail this one.
//
// The cases cover the six benchmarks (several capture chunks each), a
// parameterized zoo member, the loop-closure selection, and a stream
// shorter than one chunk that ends in HALT.
func TestCaptureBytesPinned(t *testing.T) {
	const limit = 300_000
	loop := trace.DefaultConfig()
	loop.BreakOnLoopClosure = true
	short := workload.NewWild("pin-short", workload.WildParams{Seed: 7, Iters: 300})

	cases := []struct {
		name   string
		w      *workload.Workload
		limit  uint64
		sel    trace.Config
		instrs uint64
		traces int
		sha    string
	}{
		{"compress", nil, limit, trace.DefaultConfig(),
			300000, 23134, "805c54d5c65951de761ba9f28368e969415948d8d4ac0cc17644e9d68b379668"},
		{"gcc", nil, limit, trace.DefaultConfig(),
			300000, 23638, "1ae95854f943a8b1479cb92d3cf897858f52d88117db785004edda55b2b58bd4"},
		{"go", nil, limit, trace.DefaultConfig(),
			300000, 22968, "e602ae8928315dd992bac695fa0b779132ef571657d4d152357dbc11de36330d"},
		{"jpeg", nil, limit, trace.DefaultConfig(),
			300000, 18834, "f52a9b8ff77541de87f24e16fbc69f816b7a29aa904c2581291fee35eeca6001"},
		{"mksim", nil, limit, trace.DefaultConfig(),
			300000, 29290, "ef7c4d00b3700bbe63c4b760b54241e6141fcda47705660f12acc28017b4fc73"},
		{"xlisp", nil, limit, trace.DefaultConfig(),
			300000, 23357, "bc295fbf0d5f60146d6157ff9cfe31eb621e7c8faa9cde6f5abcdc8e557c2990"},
		{"wild", nil, limit, trace.DefaultConfig(),
			300000, 18750, "ba855ff85aee98f47b380ae07d55cbddcaf0a750f230e24c2a41564bc622fdf6"},
		{"compress+loop", mustWorkload(t, "compress"), limit, loop,
			300000, 27232, "a020527cf01ffb9def122546a9d8d9123ff42bbd317536f46d650d044304b0ed"},
		{"pin-short", short, 0, trace.DefaultConfig(),
			21306, 1332, "9803fa6c8ccf31b82223ff229ebc458d76509b853aa51b25b9377e882aea7609"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := c.w
			if w == nil {
				w = mustWorkload(t, c.name)
			}
			s, err := Capture(nil, w, c.limit, c.sel)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := s.Encode(h); err != nil {
				t.Fatal(err)
			}
			sum := hex.EncodeToString(h.Sum(nil))
			if s.Instrs() != c.instrs || s.Len() != c.traces || sum != c.sha {
				t.Errorf("instrs %d traces %d sha256 %s\n  want instrs %d traces %d sha256 %s",
					s.Instrs(), s.Len(), sum, c.instrs, c.traces, c.sha)
			}
			if c.limit == 0 {
				var last trace.Trace
				s.At(s.Len()-1, &last)
				if !last.EndsHalt {
					t.Error("a capture run to completion does not end in HALT")
				}
			}
		})
	}
}

func mustWorkload(t *testing.T, name string) *workload.Workload {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	return w
}
