package oracle

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"logicregression/internal/circuit"
)

func xorCircuit() *circuit.Circuit {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	c.AddPO("z", c.Xor(a, b))
	c.AddPO("w", c.And(a, b))
	return c
}

func TestCircuitOracle(t *testing.T) {
	o := FromCircuit(xorCircuit())
	if o.NumInputs() != 2 || o.NumOutputs() != 2 {
		t.Fatalf("arity %d/%d", o.NumInputs(), o.NumOutputs())
	}
	if o.InputNames()[1] != "b" || o.OutputNames()[0] != "z" {
		t.Fatal("names wrong")
	}
	out := o.Eval([]bool{true, false})
	if out[0] != true || out[1] != false {
		t.Fatalf("Eval = %v", out)
	}
	if err := Validate(o); err != nil {
		t.Fatal(err)
	}
}

func TestFuncOracle(t *testing.T) {
	o := &FuncOracle{
		Ins:  []string{"x"},
		Outs: []string{"y"},
		F:    func(a []bool) []bool { return []bool{!a[0]} },
	}
	if err := Validate(o); err != nil {
		t.Fatal(err)
	}
	if !Eval(o, []bool{false})[0] {
		t.Fatal("inverter oracle wrong")
	}
}

func TestValidateCatchesBadOracle(t *testing.T) {
	bad := &FuncOracle{
		Ins:  []string{"x"},
		Outs: []string{"y", "z"},
		F:    func(a []bool) []bool { return []bool{a[0]} }, // returns 1, claims 2
	}
	if err := Validate(bad); err == nil {
		t.Fatal("Validate accepted arity-lying oracle")
	}
}

func TestCounterCountsScalarAndWordQueries(t *testing.T) {
	cnt := NewCounter(FromCircuit(xorCircuit()))
	Eval(cnt, []bool{true, true})
	Eval(cnt, []bool{false, true})
	if cnt.Queries() != 2 {
		t.Fatalf("Queries = %d, want 2", cnt.Queries())
	}
	cnt.EvalBatch([]uint64{0, 0}, 64)
	if cnt.Queries() != 66 {
		t.Fatalf("Queries = %d, want 66", cnt.Queries())
	}
	cnt.Reset()
	if cnt.Queries() != 0 {
		t.Fatal("Reset did not zero")
	}
}

func TestCounterWordFallbackOnScalarOracle(t *testing.T) {
	inner := &FuncOracle{
		Ins:  []string{"a", "b"},
		Outs: []string{"z"},
		F:    func(a []bool) []bool { return []bool{a[0] != a[1]} },
	}
	cnt := NewCounter(inner)
	rng := rand.New(rand.NewSource(1))
	in := []uint64{rng.Uint64(), rng.Uint64()}
	got := cnt.EvalBatch(in, 64)
	want := in[0] ^ in[1]
	if got[0] != want {
		t.Fatalf("64-pattern batch over a per-pattern oracle = %x, want %x", got[0], want)
	}
}

func TestMemoCachesAndPreservesValues(t *testing.T) {
	calls := 0
	inner := &FuncOracle{
		Ins:  []string{"a", "b"},
		Outs: []string{"z"},
		F: func(a []bool) []bool {
			calls++
			return []bool{a[0] && a[1]}
		},
	}
	m := NewMemo(inner)
	a := []bool{true, true}
	r1 := Eval(m, a)
	r2 := Eval(m, a)
	if calls != 1 {
		t.Fatalf("inner called %d times, want 1", calls)
	}
	if m.Hits() != 1 {
		t.Fatalf("Hits = %d, want 1", m.Hits())
	}
	if r1[0] != r2[0] || !r1[0] {
		t.Fatal("memo changed value")
	}
	// Mutating the returned slice must not poison the cache.
	r2[0] = false
	if !Eval(m, a)[0] {
		t.Fatal("cache poisoned by caller mutation")
	}
}

func TestProject(t *testing.T) {
	o := FromCircuit(xorCircuit())
	p := NewProject(o, 1) // the AND output
	if p.NumOutputs() != 1 || p.OutputNames()[0] != "w" {
		t.Fatalf("projection metadata wrong: %v", p.OutputNames())
	}
	if got := Eval(p, []bool{true, true}); !got[0] {
		t.Fatalf("projected AND(1,1) = %v", got)
	}
	if got := Eval(p, []bool{true, false}); got[0] {
		t.Fatalf("projected AND(1,0) = %v", got)
	}
	w := p.EvalBatch([]uint64{^uint64(0), 0}, 64)
	if w[0] != 0 {
		t.Fatalf("projected words = %x", w[0])
	}
}

func TestProjectPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProject(FromCircuit(xorCircuit()), 5)
}

func TestTranscriptRecordReplay(t *testing.T) {
	inner := FromCircuit(xorCircuit())
	var buf bytes.Buffer
	rec, err := NewRecorder(inner, &buf)
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]bool{{true, false}, {false, false}, {true, true}, {true, false}}
	var want [][]bool
	for _, q := range queries {
		want = append(want, Eval(rec, q))
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}

	rp, err := NewReplay(&buf)
	if err != nil {
		t.Fatalf("%v\ntranscript:\n%s", err, buf.String())
	}
	if rp.NumInputs() != 2 || rp.NumOutputs() != 2 {
		t.Fatalf("replay arity %d/%d", rp.NumInputs(), rp.NumOutputs())
	}
	if rp.InputNames()[0] != "a" || rp.OutputNames()[1] != "w" {
		t.Fatal("replay names lost")
	}
	if rp.NumQueries() != 3 { // one duplicate query
		t.Fatalf("NumQueries = %d, want 3", rp.NumQueries())
	}
	for i, q := range queries {
		got := Eval(rp, q)
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("replay differs at query %d output %d", i, j)
			}
		}
	}
}

func TestReplayPanicsOnUnknownQuery(t *testing.T) {
	inner := FromCircuit(xorCircuit())
	var buf bytes.Buffer
	rec, _ := NewRecorder(inner, &buf)
	Eval(rec, []bool{true, true})
	rp, err := NewReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown query did not panic")
		}
	}()
	Eval(rp, []bool{false, true})
}

func TestReplayRejectsMalformedTranscripts(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"no outputs":   "inputs a b\n",
		"bad header":   "wat a b\noutputs z\n",
		"short line":   "inputs a b\noutputs z\n01\n",
		"bad bits":     "inputs a b\noutputs z\n0x 1\n",
		"width wrong":  "inputs a b\noutputs z\n010 1\n",
		"out too long": "inputs a b\noutputs z\n01 11\n",
	}
	for name, text := range cases {
		if _, err := NewReplay(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLearnFromReplayedTranscript(t *testing.T) {
	// Record a learn session, then rerun the exact same learn against the
	// replay: identical options and seed reproduce the query stream.
	golden := xorCircuit()
	var buf bytes.Buffer
	rec, _ := NewRecorder(FromCircuit(golden), &buf)
	// Drive a deterministic query pattern directly (a learner run would
	// work too; this keeps the test self-contained).
	for m := 0; m < 4; m++ {
		Eval(rec, []bool{m&1 == 1, m>>1&1 == 1})
	}
	rp, err := NewReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		a := []bool{m&1 == 1, m>>1&1 == 1}
		w1 := golden.Eval(a)
		w2 := Eval(rp, a)
		for j := range w1 {
			if w1[j] != w2[j] {
				t.Fatal("replay diverges from golden")
			}
		}
	}
}
