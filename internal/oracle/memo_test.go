package oracle

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"logicregression/internal/bitvec"
)

// countingOracle counts real evaluations of a 3-input xor-ish function.
type countingOracle struct {
	calls int
}

func (o *countingOracle) NumInputs() int        { return 3 }
func (o *countingOracle) NumOutputs() int       { return 1 }
func (o *countingOracle) InputNames() []string  { return []string{"a", "b", "c"} }
func (o *countingOracle) OutputNames() []string { return []string{"z"} }
func (o *countingOracle) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	return evalPerPattern(3, patterns, n, func(a []bool) []bool {
		o.calls++
		return []bool{o.evalPure(a)}
	})
}

func assign3(m int) []bool {
	return []bool{m&1 == 1, m>>1&1 == 1, m>>2&1 == 1}
}

func TestMemoLRUEviction(t *testing.T) {
	inner := &countingOracle{}
	m := NewMemoCap(inner, 4)

	// Fill the cache: 4 distinct queries, all misses.
	for q := 0; q < 4; q++ {
		Eval(m, assign3(q))
	}
	if inner.calls != 4 || m.Len() != 4 {
		t.Fatalf("after fill: calls=%d len=%d", inner.calls, m.Len())
	}

	// Touch query 0 so query 1 becomes the LRU victim.
	Eval(m, assign3(0))
	if inner.calls != 4 {
		t.Fatalf("hit went to the inner oracle (calls=%d)", inner.calls)
	}

	// Insert two fresh queries: evicts 1 then 2 (LRU order), never 0.
	Eval(m, assign3(4))
	Eval(m, assign3(5))
	if m.Len() != 4 {
		t.Fatalf("capacity not enforced: len=%d", m.Len())
	}
	if m.Evictions() != 2 {
		t.Fatalf("Evictions = %d, want 2", m.Evictions())
	}

	callsBefore := inner.calls
	Eval(m, assign3(0)) // still cached: recency protected it
	if inner.calls != callsBefore {
		t.Fatal("recently used entry was evicted")
	}
	Eval(m, assign3(1)) // evicted: must re-query
	if inner.calls != callsBefore+1 {
		t.Fatal("evicted entry still answered from cache")
	}
}

func TestMemoBatchDeduplicatesMisses(t *testing.T) {
	inner := &countingOracle{}
	m := NewMemoCap(inner, 64)

	// A 64-pattern batch over only 8 distinct assignments: the inner
	// oracle sees each distinct assignment exactly once.
	const n = 64
	w := Words(n)
	lanes := make([]bitvec.Word, 3*w)
	for k := 0; k < n; k++ {
		for i, bit := range assign3(k % 8) {
			if bit {
				setLaneBit(lanes, w, i, k)
			}
		}
	}
	out := m.EvalBatch(lanes, n)
	if inner.calls != 8 {
		t.Fatalf("inner calls = %d, want 8 (deduplicated misses)", inner.calls)
	}
	for k := 0; k < n; k++ {
		want := inner.evalPure(assign3(k % 8))
		if laneBit(out, w, 0, k) != want {
			t.Fatalf("batch result wrong at pattern %d", k)
		}
	}

	// A second identical batch is all hits.
	m.EvalBatch(lanes, n)
	if inner.calls != 8 {
		t.Fatalf("warm batch re-queried the inner oracle (calls=%d)", inner.calls)
	}
	if m.Hits() == 0 {
		t.Fatal("no hits recorded")
	}
}

// evalPure computes the function without counting.
func (o *countingOracle) evalPure(a []bool) bool { return a[0] != a[1] || a[2] }

func TestMemoWordsGoThroughCache(t *testing.T) {
	inner := &countingOracle{}
	m := NewMemoCap(inner, 64)
	in := []uint64{0xAAAA, 0xCCCC, 0xF0F0}
	r1 := m.EvalBatch(in, 64)
	r2 := m.EvalBatch(in, 64)
	if r1[0] != r2[0] {
		t.Fatalf("64-pattern batch unstable: %x vs %x", r1[0], r2[0])
	}
	if inner.calls != 8 { // 3 inputs -> at most 8 distinct assignments
		t.Fatalf("inner calls = %d, want 8", inner.calls)
	}
	want := ScalarOnly(inner).EvalBatch(in, 64)
	if r1[0] != want[0] {
		t.Fatalf("64-pattern batch = %x, reference %x", r1[0], want[0])
	}
}

func TestMemoCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewMemoCap(&countingOracle{}, 0)
}

// TestMemoConcurrentStress hammers one shared Memo from many goroutines with
// overlapping keys, mixed one-pattern/64-pattern/odd-sized batch queries, live stats reads, and a
// capacity small enough to force constant eviction. Run under -race this is
// the regression test for the sharded LRU's locking; functionally every
// answer must still match the inner oracle.
func TestMemoConcurrentStress(t *testing.T) {
	// The inner oracle must itself be race-free: Memo evaluates misses
	// outside the shard locks by design, so countingOracle's unguarded
	// counter would be a false positive here.
	inner := statelessOracle{}
	m := NewMemoCap(inner, 8) // tiny: every shard evicts continuously

	const workers = 8
	const rounds = 400
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				switch rng.Intn(4) {
				case 0:
					a := assign3(rng.Intn(8))
					want := inner.eval(a)
					if got := Eval(m, a); got[0] != want[0] {
						errs <- fmt.Errorf("Eval(%v) = %v, want %v", a, got, want)
						return
					}
				case 1:
					in := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
					got := m.EvalBatch(in, 64)
					want := in[0] ^ in[1] | in[2]
					if got[0] != want {
						errs <- fmt.Errorf("EvalBatch(%x, 64) = %x, want %x", in, got[0], want)
						return
					}
				case 2:
					n := 1 + rng.Intn(130) // spans partial and multi-word batches
					lanes := make([]bitvec.Word, 3*Words(n))
					for i := range lanes {
						lanes[i] = bitvec.Word(rng.Uint64())
					}
					out := m.EvalBatch(lanes, n)
					words := Words(n)
					for k := 0; k < n; k++ {
						w, bit := k/64, uint(k%64)
						a := []bool{
							lanes[0*words+w]>>bit&1 == 1,
							lanes[1*words+w]>>bit&1 == 1,
							lanes[2*words+w]>>bit&1 == 1,
						}
						want := inner.eval(a)[0]
						if got := out[w]>>bit&1 == 1; got != want {
							errs <- fmt.Errorf("EvalBatch pattern %d = %v, want %v", k, got, want)
							return
						}
					}
				default:
					// Stats and Len walk every shard; they must be safe
					// against concurrent mutation.
					_ = m.Hits() + m.Misses() + m.Evictions() + int64(m.Len())
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m.Len() > 8 {
		t.Errorf("cache holds %d entries, capacity 8", m.Len())
	}
}

// statelessOracle is countingOracle's function without the call counter, so
// concurrent cache misses do not race on the oracle itself.
type statelessOracle struct{}

func (statelessOracle) NumInputs() int        { return 3 }
func (statelessOracle) NumOutputs() int       { return 1 }
func (statelessOracle) InputNames() []string  { return []string{"a", "b", "c"} }
func (statelessOracle) OutputNames() []string { return []string{"z"} }
func (statelessOracle) eval(a []bool) []bool  { return []bool{a[0] != a[1] || a[2]} }
func (o statelessOracle) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	return evalPerPattern(3, patterns, n, o.eval)
}
