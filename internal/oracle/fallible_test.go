package oracle

import (
	"errors"
	"fmt"
	"testing"

	"logicregression/internal/bitvec"
)

// failingOracle answers xor of its two inputs but fails every failEvery-th
// query with a transient error, and permanently after dieAfter queries.
type failingOracle struct {
	calls     int
	failEvery int
	dieAfter  int
}

var errInjected = errors.New("injected fault")

func (f *failingOracle) NumInputs() int        { return 2 }
func (f *failingOracle) NumOutputs() int       { return 1 }
func (f *failingOracle) InputNames() []string  { return []string{"a", "b"} }
func (f *failingOracle) OutputNames() []string { return []string{"z"} }

func (f *failingOracle) TryEvalBatch(patterns []bitvec.Word, n int) ([]bitvec.Word, error) {
	w := Words(n)
	out := make([]bitvec.Word, w)
	a := make([]bool, 2)
	for k := 0; k < n; k++ {
		f.calls++
		if f.dieAfter > 0 && f.calls > f.dieAfter {
			return nil, errInjected
		}
		if f.failEvery > 0 && f.calls%f.failEvery == 0 {
			return nil, Transient(errInjected)
		}
		patternBools(patterns, w, 2, k, a)
		if a[0] != a[1] {
			setLaneBit(out, w, 0, k)
		}
	}
	return out, nil
}

// strictFailing is the panicking face of failingOracle, the shape every
// transport's EvalBatch has: errors leave as *Failure panics.
type strictFailing struct{ *failingOracle }

func (s strictFailing) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	out, err := s.TryEvalBatch(patterns, n)
	if err != nil {
		panic(NewFailure(err))
	}
	return out
}

// tryEval asks f one assignment, as a one-pattern batch.
func tryEval(f Fallible, a []bool) ([]bool, error) {
	lanes := packPatterns([][]bool{a}, len(a))
	res, err := f.TryEvalBatch(lanes, 1)
	if err != nil {
		return nil, err
	}
	out := make([]bool, f.NumOutputs())
	patternBools(res, 1, len(out), 0, out)
	return out, nil
}

func TestTransientMarkSurvivesWrapping(t *testing.T) {
	err := Transient(errInjected)
	if !IsTransient(err) {
		t.Fatal("direct mark not detected")
	}
	wrapped := fmt.Errorf("retry 3: %w", err)
	if !IsTransient(wrapped) {
		t.Fatal("mark lost through %w wrapping")
	}
	if !errors.Is(wrapped, errInjected) {
		t.Fatal("underlying error lost")
	}
	if IsTransient(errInjected) {
		t.Fatal("unmarked error reported transient")
	}
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) must stay nil")
	}
}

func TestAsFallibleRecoversFailurePanics(t *testing.T) {
	// A strict oracle over a fallible one, memoized, then lifted back: the
	// error must come out as a value, not a panic.
	inner := &failingOracle{dieAfter: 2}
	f := AsFallible(NewMemo(strictFailing{inner}))
	if _, err := tryEval(f, []bool{true, false}); err != nil {
		t.Fatalf("healthy query failed: %v", err)
	}
	if _, err := tryEval(f, []bool{false, true}); err != nil {
		t.Fatalf("healthy query failed: %v", err)
	}
	_, err := tryEval(f, []bool{true, true})
	if !errors.Is(err, errInjected) {
		t.Fatalf("got %v, want the injected fault as a value", err)
	}
	// The memoized response must still be served (no wire hit: inner would
	// fail it).
	if out, err := tryEval(f, []bool{true, false}); err != nil || !out[0] {
		t.Fatalf("memoized replay broken after failure: %v %v", out, err)
	}
}

func TestAsFallibleDoesNotEatOtherPanics(t *testing.T) {
	f := AsFallible(&FuncOracle{
		Ins:  []string{"a"},
		Outs: []string{"z"},
		F:    func([]bool) []bool { panic("not a transport failure") },
	})
	defer func() {
		if recover() == nil {
			t.Fatal("non-Failure panic was swallowed")
		}
	}()
	tryEval(f, []bool{true})
}
