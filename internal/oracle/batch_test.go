package oracle_test

// Equivalence guarantee of the batched query engine: EvalBatch must be
// bitwise identical to asking one pattern at a time, for every oracle
// wrapper, on all 20 benchmark cases. (External test package: internal/cases itself imports
// internal/oracle.)

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"logicregression/internal/bitvec"
	"logicregression/internal/cases"
	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

// randomLanes draws n random patterns for an nIn-input oracle, seeded.
func randomLanes(rng *rand.Rand, nIn, n int) []bitvec.Word {
	w := oracle.Words(n)
	lanes := make([]bitvec.Word, nIn*w)
	for i := range lanes {
		lanes[i] = rng.Uint64()
	}
	// Zero the tails so scalar reconstruction sees the same don't-cares.
	if r := uint(n) & 63; r != 0 {
		for i := 0; i < nIn; i++ {
			lanes[i*w+w-1] &= 1<<r - 1
		}
	}
	return lanes
}

// scalarReference evaluates every pattern with one eval call each.
func scalarReference(eval func([]bool) []bool, nIn, nOut int, lanes []bitvec.Word, n int) []bitvec.Word {
	w := oracle.Words(n)
	out := make([]bitvec.Word, nOut*w)
	a := make([]bool, nIn)
	for k := 0; k < n; k++ {
		for i := range a {
			a[i] = lanes[i*w+k>>6]>>(uint(k)&63)&1 == 1
		}
		for j, bit := range eval(a) {
			if bit {
				out[j*w+k>>6] |= 1 << (uint(k) & 63)
			}
		}
	}
	return out
}

// blockwise answers a batch one 64-pattern block at a time through the
// circuit oracle's EvalWords.
func blockwise(o *oracle.CircuitOracle, lanes []bitvec.Word, n int) []bitvec.Word {
	w := oracle.Words(n)
	out := make([]bitvec.Word, o.NumOutputs()*w)
	in := make([]uint64, o.NumInputs())
	for b := 0; b < w; b++ {
		for i := range in {
			in[i] = lanes[i*w+b]
		}
		for j, v := range o.EvalWords(in) {
			out[j*w+b] = v
		}
	}
	return out
}

func assertLanesEqual(t *testing.T, name string, got, want []bitvec.Word, nOut, n int) {
	t.Helper()
	w := oracle.Words(n)
	for j := 0; j < nOut; j++ {
		for b := 0; b < w; b++ {
			mask := ^bitvec.Word(0)
			if last := n - b*64; last < 64 {
				mask = 1<<uint(last) - 1
			}
			if got[j*w+b]&mask != want[j*w+b]&mask {
				t.Fatalf("%s: output %d word %d: got %016x want %016x",
					name, j, b, got[j*w+b]&mask, want[j*w+b]&mask)
			}
		}
	}
}

// TestEvalBatchParityAllCases is the seeded fuzz/parity sweep over every
// benchmark oracle: the circuit-backed batch path, the one-pattern-per-query
// ScalarOnly wrapper, the Eval helper, and the Counter/Memo wrappers must
// all agree with the circuit's scalar simulator bit for bit.
func TestEvalBatchParityAllCases(t *testing.T) {
	for _, cs := range cases.All() {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			o := cs.Oracle()
			rng := rand.New(rand.NewSource(int64(len(cs.Name)) * 7919))
			for _, n := range []int{1, 63, 64, 200} {
				lanes := randomLanes(rng, o.NumInputs(), n)
				want := scalarReference(cs.Circuit.Eval, o.NumInputs(), o.NumOutputs(), lanes, n)

				got := o.EvalBatch(lanes, n)
				assertLanesEqual(t, "circuit-batch", got, want, o.NumOutputs(), n)

				scalar := oracle.ScalarOnly(o).EvalBatch(lanes, n)
				assertLanesEqual(t, "scalar-only", scalar, want, o.NumOutputs(), n)

				helper := scalarReference(func(a []bool) []bool { return oracle.Eval(o, a) },
					o.NumInputs(), o.NumOutputs(), lanes, n)
				assertLanesEqual(t, "eval-helper", helper, want, o.NumOutputs(), n)

				counted := oracle.NewCounter(o)
				assertLanesEqual(t, "counter", counted.EvalBatch(lanes, n), want, o.NumOutputs(), n)
				if counted.Queries() != int64(n) {
					t.Fatalf("counter charged %d queries for a %d-batch", counted.Queries(), n)
				}

				memo := oracle.NewMemoCap(o, 4096)
				assertLanesEqual(t, "memo-cold", memo.EvalBatch(lanes, n), want, o.NumOutputs(), n)
				assertLanesEqual(t, "memo-warm", memo.EvalBatch(lanes, n), want, o.NumOutputs(), n)
			}
		})
	}
}

// TestBatchTranscriptRecordReplay pushes a batch and single queries (the
// Eval helper) through a Recorder and replays the transcript through the
// batch path: record->replay must be the identity whichever way a pattern
// was recorded, and the replayed session must also answer single queries.
func TestBatchTranscriptRecordReplay(t *testing.T) {
	cs, err := cases.ByName("case_10")
	if err != nil {
		t.Fatal(err)
	}
	o := cs.Oracle()
	var buf bytes.Buffer
	rec, err := oracle.NewRecorder(o, &buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 130
	rng := rand.New(rand.NewSource(99))
	lanes := randomLanes(rng, o.NumInputs(), n)
	want := rec.EvalBatch(lanes, n)
	const n1 = 70
	single := randomLanes(rng, o.NumInputs(), n1)
	wantSingle := scalarReference(func(a []bool) []bool { return oracle.Eval(rec, a) },
		o.NumInputs(), o.NumOutputs(), single, n1)
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}

	rp, err := oracle.NewReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := rp.EvalBatch(lanes, n)
	assertLanesEqual(t, "replay-batch", got, want, o.NumOutputs(), n)
	got = rp.EvalBatch(single, n1)
	assertLanesEqual(t, "replay-of-single-queries", got, wantSingle, o.NumOutputs(), n1)

	// Single queries against the recorded batch must also resolve.
	w := oracle.Words(n)
	a := make([]bool, o.NumInputs())
	for i := range a {
		a[i] = lanes[i*w]&1 == 1 // pattern 0
	}
	for j, bit := range oracle.Eval(rp, a) {
		if bit != (want[j*w]&1 == 1) {
			t.Fatalf("scalar replay of recorded batch pattern diverges at output %d", j)
		}
	}
}

// TestProjectBatchLane checks that a projected oracle returns exactly the
// selected output's lane.
func TestProjectBatchLane(t *testing.T) {
	cs, err := cases.ByName("case_7")
	if err != nil {
		t.Fatal(err)
	}
	o := cs.Oracle()
	rng := rand.New(rand.NewSource(5))
	const n = 90
	lanes := randomLanes(rng, o.NumInputs(), n)
	full := o.EvalBatch(lanes, n)
	w := oracle.Words(n)
	for out := 0; out < o.NumOutputs(); out += 3 {
		p := oracle.NewProject(o, out)
		got := p.EvalBatch(lanes, n)
		assertLanesEqual(t, "project", got, full[out*w:(out+1)*w], 1, n)
	}
}

// TestCircuitOracleFollowsCircuitGrowth queries a CircuitOracle, then grows
// its circuit (new gates and POs, a rebound PO driver, enough gates that the
// pooled simulation scratch is too small) and checks that every later batch
// still answers for the circuit as it is now.
func TestCircuitOracleFollowsCircuitGrowth(t *testing.T) {
	c := circuit.New()
	var pis []circuit.Signal
	for i := 0; i < 8; i++ {
		pis = append(pis, c.AddPI(string(rune('a'+i))))
	}
	c.AddPO("x", c.Xor(pis[0], pis[1]))
	o := oracle.FromCircuit(c)
	rng := rand.New(rand.NewSource(13))
	stages := []struct {
		name string
		grow func()
	}{
		{"initial", func() {}},
		{"new PO", func() { c.AddPO("y", c.Nand(c.Or(pis[2], pis[3]), c.NotGate(pis[4]))) }},
		{"rebound PO", func() { c.SetPODriver(0, c.Xnor(pis[5], c.And(pis[6], pis[7]))) }},
		{"wide growth", func() {
			s := pis[0]
			for k := 0; k < 3000; k++ {
				s = c.Xor(s, c.And(pis[k%8], pis[(k*5+3)%8]))
			}
			c.AddPO("z", s)
		}},
	}
	for _, st := range stages {
		st.grow()
		if o.NumOutputs() != c.NumPO() {
			t.Fatalf("%s: oracle reports %d outputs, circuit has %d", st.name, o.NumOutputs(), c.NumPO())
		}
		for _, n := range []int{1, 130, 64 * 300} {
			lanes := randomLanes(rng, o.NumInputs(), n)
			want := scalarReference(c.Eval, o.NumInputs(), o.NumOutputs(), lanes, n)
			assertLanesEqual(t, st.name, o.EvalBatch(lanes, n), want, o.NumOutputs(), n)
		}
	}
}

// TestCircuitOracleConcurrentBatchWidths drives one CircuitOracle from
// several goroutines at once with batches of different widths, so pooled
// scratch buffers are shared, outgrown and replaced while others use them.
func TestCircuitOracleConcurrentBatchWidths(t *testing.T) {
	cs, err := cases.ByName("case_5")
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.FromCircuit(cs.Circuit)
	type job struct {
		lanes, want []bitvec.Word
		n           int
	}
	// The reference answers block by block through EvalWords, which
	// shares no scratch with EvalBatch.
	rng := rand.New(rand.NewSource(21))
	var jobs []job
	for _, n := range []int{1, 70, 640, 6400, 64 * 300} {
		lanes := randomLanes(rng, o.NumInputs(), n)
		jobs = append(jobs, job{lanes, blockwise(o, lanes, n), n})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				j := jobs[(g+r)%len(jobs)]
				got := o.EvalBatch(j.lanes, j.n)
				w := oracle.Words(j.n)
				for k := range j.want {
					mask := ^bitvec.Word(0)
					if k%w == w-1 && j.n%64 != 0 {
						mask = 1<<(j.n%64) - 1 // tail bits are don't-cares
					}
					if got[k]&mask != j.want[k]&mask {
						t.Errorf("goroutine %d: %d-pattern batch differs at word %d", g, j.n, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
