// Package oracle defines the black-box input-output relation generator
// interface of the contest problem and the standard wrappers around it.
//
// Per the problem statement, an oracle accepts only full input assignments
// and returns full output assignments; nothing else about the hidden function
// is observable. The circuit-backed implementation stands in for the contest
// `iogen` executables (see DESIGN.md substitutions).
//
// The black box has one query shape: EvalBatch, any number of full
// assignments packed into lanes (see batch.go). A single assignment is a
// one-pattern batch, asked through the Eval helper. Fallible (fallible.go)
// is the same query with errors as values, for transports that can fail.
package oracle

import (
	"fmt"
	"sync"
	"sync/atomic"

	"logicregression/internal/bitvec"
	"logicregression/internal/circuit"
)

// Oracle is a black-box IO-relation generator.
type Oracle interface {
	// NumInputs returns |I|.
	NumInputs() int
	// NumOutputs returns |O|.
	NumOutputs() int
	// InputNames returns the PI names, the only structural hint the
	// contest provides (exploited by name-based grouping).
	InputNames() []string
	// OutputNames returns the PO names.
	OutputNames() []string
	// EvalBatch evaluates n patterns packed into input lanes and returns
	// NumOutputs() result lanes in the same layout (see batch.go). A batch
	// carries the same information as n single queries and counts as n.
	EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word
}

// Eval queries o with one full assignment, as a one-pattern batch.
func Eval(o Oracle, a []bool) []bool {
	lanes := make([]bitvec.Word, len(a))
	for i, bit := range a {
		if bit {
			lanes[i] = 1
		}
	}
	res := o.EvalBatch(lanes, 1)
	out := make([]bool, o.NumOutputs())
	for j := range out {
		out[j] = res[j]&1 == 1
	}
	return out
}

// CircuitOracle wraps a circuit as a black box.
type CircuitOracle struct {
	c *circuit.Circuit
	// scratch pools EvalBatch's simulation value scratch (*[]uint64), so
	// concurrent callers each get their own and none allocates per call.
	// New sizes a buffer to scratchLen, the largest scratch any EvalBatch
	// has asked for.
	scratch    sync.Pool
	scratchLen atomic.Int64
}

// FromCircuit returns an oracle backed by the given circuit.
func FromCircuit(c *circuit.Circuit) *CircuitOracle {
	o := &CircuitOracle{c: c}
	o.scratch.New = func() any {
		s := make([]uint64, o.scratchLen.Load())
		return &s
	}
	return o
}

func (o *CircuitOracle) NumInputs() int        { return o.c.NumPI() }
func (o *CircuitOracle) NumOutputs() int       { return o.c.NumPO() }
func (o *CircuitOracle) InputNames() []string  { return o.c.PINames() }
func (o *CircuitOracle) OutputNames() []string { return o.c.PONames() }

// Eval and EvalWords simulate one assignment and one 64-pattern word
// directly. They are not part of the Oracle interface; the learn benchmark
// harness times them.
func (o *CircuitOracle) Eval(a []bool) []bool           { return o.c.Eval(a) }
func (o *CircuitOracle) EvalWords(in []uint64) []uint64 { return o.c.EvalWords(in) }

// EvalBatch evaluates the caller's lanes directly with the circuit's
// simulation kernel (circuit.EvalLanes). A pooled scratch buffer too small
// for this batch (a wider batch, or a circuit that grew since the buffer was
// made) is dropped, and the pool makes one of the new size.
//
//logicreg:hotpath
func (o *CircuitOracle) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	w := Words(n)
	checkBatch(len(patterns), o.c.NumPI(), n)
	need := int64(o.c.LaneScratch(w))
	for cur := o.scratchLen.Load(); cur < need && !o.scratchLen.CompareAndSwap(cur, need); {
		cur = o.scratchLen.Load()
	}
	sp := o.scratch.Get()
	for int64(len(*sp.(*[]uint64))) < need {
		sp = o.scratch.Get()
	}
	//logicreg:allow hotalloc the result lanes are returned to the caller
	out := make([]bitvec.Word, o.c.NumPO()*w)
	o.c.EvalLanes(patterns, w, out, *sp.(*[]uint64))
	o.scratch.Put(sp)
	return out
}

// Fork returns the oracle itself: circuit evaluation keeps all mutable state
// in per-call scratch, so one CircuitOracle may serve many goroutines.
func (o *CircuitOracle) Fork() Oracle { return o }

// FuncOracle adapts a Go function to the Oracle interface, for tests.
type FuncOracle struct {
	Ins, Outs []string
	F         func([]bool) []bool
}

func (o *FuncOracle) NumInputs() int        { return len(o.Ins) }
func (o *FuncOracle) NumOutputs() int       { return len(o.Outs) }
func (o *FuncOracle) InputNames() []string  { return append([]string(nil), o.Ins...) }
func (o *FuncOracle) OutputNames() []string { return append([]string(nil), o.Outs...) }

// EvalBatch calls F once per pattern: the reference semantics of a batch.
func (o *FuncOracle) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	return evalPerPattern(len(o.Ins), patterns, n, o.F)
}

// Counter wraps an oracle and counts queries. It is safe for concurrent use.
type Counter struct {
	inner   Oracle
	mu      sync.Mutex
	queries int64
}

// NewCounter wraps o with a query counter.
func NewCounter(o Oracle) *Counter { return &Counter{inner: o} }

func (o *Counter) NumInputs() int        { return o.inner.NumInputs() }
func (o *Counter) NumOutputs() int       { return o.inner.NumOutputs() }
func (o *Counter) InputNames() []string  { return o.inner.InputNames() }
func (o *Counter) OutputNames() []string { return o.inner.OutputNames() }

// EvalBatch forwards to the inner oracle, accounting exactly n queries.
func (o *Counter) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	o.mu.Lock()
	o.queries += int64(n)
	o.mu.Unlock()
	return o.inner.EvalBatch(patterns, n)
}

// Queries returns the number of queries issued so far.
func (o *Counter) Queries() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.queries
}

// Reset zeroes the query counter.
func (o *Counter) Reset() {
	o.mu.Lock()
	o.queries = 0
	o.mu.Unlock()
}

func assignKey(a []bool) string {
	buf := make([]byte, (len(a)+7)/8)
	for i, b := range a {
		if b {
			buf[i>>3] |= 1 << uint(i&7)
		}
	}
	return string(buf)
}

// Validate checks basic interface sanity of an oracle implementation: name
// counts match arities and a one-pattern batch returns one lane per output.
func Validate(o Oracle) error {
	if len(o.InputNames()) != o.NumInputs() {
		return fmt.Errorf("oracle: %d input names for %d inputs", len(o.InputNames()), o.NumInputs())
	}
	if len(o.OutputNames()) != o.NumOutputs() {
		return fmt.Errorf("oracle: %d output names for %d outputs", len(o.OutputNames()), o.NumOutputs())
	}
	out := o.EvalBatch(make([]bitvec.Word, o.NumInputs()), 1)
	if len(out) != o.NumOutputs() {
		return fmt.Errorf("oracle: EvalBatch returned %d output lanes, want %d", len(out), o.NumOutputs())
	}
	return nil
}

// Project restricts a multi-output oracle to a single output index, which is
// how the learner decomposes the problem per Sec. IV ("each output can be
// considered independently").
type Project struct {
	inner Oracle
	out   int
}

// NewProject returns a single-output view of output index out.
func NewProject(o Oracle, out int) *Project {
	if out < 0 || out >= o.NumOutputs() {
		panic(fmt.Sprintf("oracle: output %d out of range [0,%d)", out, o.NumOutputs()))
	}
	return &Project{inner: o, out: out}
}

func (o *Project) NumInputs() int        { return o.inner.NumInputs() }
func (o *Project) NumOutputs() int       { return 1 }
func (o *Project) InputNames() []string  { return o.inner.InputNames() }
func (o *Project) OutputNames() []string { return []string{o.inner.OutputNames()[o.out]} }

// EvalBatch evaluates the full batch on the inner oracle and returns the
// selected output's lane.
func (o *Project) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	w := Words(n)
	res := o.inner.EvalBatch(patterns, n)
	return res[o.out*w : (o.out+1)*w : (o.out+1)*w]
}
