package history

import (
	"fmt"

	"pathtrace/internal/trace"
)

// DefaultRHSDepth is the default capacity of the Return History Stack.
// The paper uses a stack whose maximum depth is "more than sufficient
// to handle all the benchmarks except for the recursive section of
// xlisp, where the predictor is of little use anyway"; 16 entries meets
// that description for our workloads and is configurable.
const DefaultRHSDepth = 16

// Stack is the Return History Stack (RHS) of §3.4. It saves path
// history across procedure calls so that, after a subroutine returns,
// the history again reflects the control flow *before* the call —
// splicing in the most recent one or two traces from inside the
// subroutine.
type Stack[T Ident] struct {
	stack []Path[T]
	max   int
}

// ReturnStack is the stack of hashed-identifier histories.
type ReturnStack = Stack[trace.HashedID]

// NewStack returns an RHS holding at most max history snapshots.
func NewStack[T Ident](max int) (*Stack[T], error) {
	if max < 1 {
		return nil, fmt.Errorf("history: return stack depth %d < 1", max)
	}
	return &Stack[T]{stack: make([]Path[T], 0, max), max: max}, nil
}

// NewReturnStack is NewStack for hashed identifiers.
func NewReturnStack(max int) (*ReturnStack, error) { return NewStack[trace.HashedID](max) }

// MustNewReturnStack is NewReturnStack for static configurations.
func MustNewReturnStack(max int) *ReturnStack {
	s, err := NewReturnStack(max)
	if err != nil {
		panic(err)
	}
	return s
}

// keepEntries implements the paper's splice rule: "when there are five
// or fewer entries in the history, only the most recent hashed
// identifier is kept; when there are more than five entries the two
// most recent hashed identifiers are kept."
func keepEntries(histSize int) int {
	if histSize <= 5 {
		return 1
	}
	return 2
}

// Observe applies the RHS actions for a completed trace, after the
// history register has been updated with the trace's identifier:
//
//   - if the trace contains calls (net of a terminal return), a copy of
//     the current history is pushed per call;
//   - if the trace ends in a return and contains no calls, the stack is
//     popped and spliced into the history.
//
// Pushing onto a full stack discards the deepest entry (hardware
// behaviour); popping an empty stack leaves the history unchanged. So
// after max pushes the stack holds max copies of the history whatever
// it held before, and a trace costs at most max pushes however many
// calls it claims.
func (s *Stack[T]) Observe(tr *trace.Trace, h *Path[T]) {
	// Most traces neither call nor return; this test inlines.
	if tr.Calls != 0 || tr.EndsInRet {
		s.observe(tr, h)
	}
}

func (s *Stack[T]) observe(tr *trace.Trace, h *Path[T]) {
	net := tr.NetCalls()
	switch {
	case net > 0:
		for i := 0; i < min(net, s.max); i++ {
			s.push(*h)
		}
	case tr.EndsInRet && tr.Calls == 0:
		if top, ok := s.pop(); ok {
			splice(h, &top)
		}
	}
}

// Depth returns the number of histories currently saved.
func (s *Stack[T]) Depth() int { return len(s.stack) }

// StackState is the exported, serializable state of a Return History
// Stack of hashed identifiers: its capacity and the saved registers,
// deepest first.
type StackState struct {
	Max  int
	Regs []RegState
}

// Max returns the stack's capacity.
func (s *Stack[T]) Max() int { return s.max }

// Saved returns the i'th saved register, deepest first (0 <= i <
// Depth()). Serialization walks the stack with it, so encoding a
// session snapshot copies no register slice.
func (s *Stack[T]) Saved(i int) PathState[T] { return s.stack[i].State() }

// StackFromState rebuilds a Return History Stack from a serialized
// state, validating capacity and every saved register.
func StackFromState(st StackState) (*ReturnStack, error) {
	if st.Max < 1 {
		return nil, fmt.Errorf("history: restored return stack depth %d < 1", st.Max)
	}
	if len(st.Regs) > st.Max {
		return nil, fmt.Errorf("history: restored return stack holds %d > max %d entries", len(st.Regs), st.Max)
	}
	s := &ReturnStack{stack: make([]Reg, len(st.Regs), st.Max), max: st.Max}
	for i, rs := range st.Regs {
		r, err := RegFromState(rs)
		if err != nil {
			return nil, err
		}
		s.stack[i] = r
	}
	return s, nil
}

func (s *Stack[T]) push(h Path[T]) {
	if len(s.stack) >= s.max {
		// Discard the deepest (oldest) snapshot.
		copy(s.stack, s.stack[1:])
		s.stack[len(s.stack)-1] = h
		return
	}
	s.stack = append(s.stack, h)
}

func (s *Stack[T]) pop() (Path[T], bool) {
	if len(s.stack) == 0 {
		return Path[T]{}, false
	}
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return top, true
}

// splice keeps the most recent keepEntries(size) identifiers of h (the
// tail of the subroutine), fills the older positions from the pre-call
// history snapshot and recomputes h's fold over the result.
func splice[T Ident](h, saved *Path[T]) {
	keep := keepEntries(h.size)
	if keep > h.size {
		keep = h.size
	}
	for i := keep; i < h.size; i++ {
		h.ids[i] = saved.ids[i-keep]
	}
	// The spliced register holds the kept entries plus whatever the
	// snapshot had filled.
	n := keep + saved.n
	if n > h.size {
		n = h.size
	}
	h.n = n
	h.refold()
}
