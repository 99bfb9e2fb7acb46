package template

import (
	"math/rand"
	"testing"

	"logicregression/internal/bitvec"
	"logicregression/internal/circuit"
	"logicregression/internal/names"
	"logicregression/internal/oracle"
)

// cmpOracle builds z = Na ⋈ Nb over two width-w buses.
func cmpOracle(w int, build func(c *circuit.Circuit, a, b circuit.Word) circuit.Signal) oracle.Oracle {
	c := circuit.New()
	a := c.AddPIWord("a", w)
	b := c.AddPIWord("b", w)
	c.AddPO("z", build(c, a, b))
	return oracle.FromCircuit(c)
}

// checkCompMatchExact verifies cm.Predict equals the oracle output over all
// assignments (small input counts only).
func checkCompMatchExact(t *testing.T, o oracle.Oracle, cm CompMatch) {
	t.Helper()
	n := o.NumInputs()
	for m := 0; m < 1<<uint(n); m++ {
		a := make([]bool, n)
		for i := 0; i < n; i++ {
			a[i] = m>>uint(i)&1 == 1
		}
		if cm.Predict(a) != oracle.Eval(o, a)[cm.Out] {
			t.Fatalf("match %v wrong at assignment %0*b", cm, n, m)
		}
	}
}

// checkSynthExact verifies the synthesized subcircuit equals the oracle.
func checkSynthExact(t *testing.T, o oracle.Oracle, cm CompMatch) {
	t.Helper()
	c := circuit.New()
	piSigs := make([]circuit.Signal, o.NumInputs())
	for i, name := range o.InputNames() {
		piSigs[i] = c.AddPI(name)
	}
	c.AddPO("z", cm.Synthesize(c, piSigs))
	n := o.NumInputs()
	for m := 0; m < 1<<uint(n); m++ {
		a := make([]bool, n)
		for i := 0; i < n; i++ {
			a[i] = m>>uint(i)&1 == 1
		}
		if c.Eval(a)[0] != oracle.Eval(o, a)[cm.Out] {
			t.Fatalf("synthesized %v wrong at %0*b", cm, n, m)
		}
	}
}

func TestDetectVectorComparators(t *testing.T) {
	builds := map[string]func(c *circuit.Circuit, a, b circuit.Word) circuit.Signal{
		"lt": func(c *circuit.Circuit, a, b circuit.Word) circuit.Signal { return c.LtWords(a, b) },
		"eq": func(c *circuit.Circuit, a, b circuit.Word) circuit.Signal { return c.EqWords(a, b) },
		"ge": func(c *circuit.Circuit, a, b circuit.Word) circuit.Signal { return c.GeWords(a, b) },
		"ne": func(c *circuit.Circuit, a, b circuit.Word) circuit.Signal { return c.NeWords(a, b) },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			o := oracle.NewCounter(cmpOracle(4, build))
			m := Detect(o, Config{Samples: 128, Verify: 32}, rand.New(rand.NewSource(1)))
			if len(m.Comparators) != 1 {
				t.Fatalf("matches = %+v, want 1 comparator", m.Comparators)
			}
			checkCompMatchExact(t, o, m.Comparators[0])
			checkSynthExact(t, o, m.Comparators[0])
		})
	}
}

func TestDetectNegatedComparator(t *testing.T) {
	o := cmpOracle(3, func(c *circuit.Circuit, a, b circuit.Word) circuit.Signal {
		return c.NotGate(c.LtWords(a, b))
	})
	m := Detect(o, Config{Samples: 128, Verify: 32}, rand.New(rand.NewSource(2)))
	if len(m.Comparators) != 1 {
		t.Fatalf("matches = %+v", m.Comparators)
	}
	checkCompMatchExact(t, o, m.Comparators[0])
}

func TestDetectConstantThresholds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(c *circuit.Circuit, a circuit.Word) circuit.Signal
	}{
		{"lt13", func(c *circuit.Circuit, a circuit.Word) circuit.Signal { return c.LtConst(a, 13) }},
		{"ge5", func(c *circuit.Circuit, a circuit.Word) circuit.Signal {
			return c.NotGate(c.LtConst(a, 5))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := circuit.New()
			a := c.AddPIWord("a", 5)
			c.AddPO("z", tc.build(c, a))
			o := oracle.FromCircuit(c)
			m := Detect(o, Config{Samples: 128, Verify: 32}, rand.New(rand.NewSource(3)))
			if len(m.Comparators) != 1 {
				t.Fatalf("matches = %+v", m.Comparators)
			}
			cm := m.Comparators[0]
			if cm.V2 != nil {
				t.Fatalf("expected constant form, got %+v", cm)
			}
			checkCompMatchExact(t, o, cm)
			checkSynthExact(t, o, cm)
		})
	}
}

func TestDetectEqualityConstant(t *testing.T) {
	c := circuit.New()
	a := c.AddPIWord("a", 4)
	c.AddPO("z", c.EqConst(a, 9))
	o := oracle.FromCircuit(c)
	m := Detect(o, Config{Samples: 256, Verify: 32}, rand.New(rand.NewSource(4)))
	if len(m.Comparators) != 1 {
		t.Fatalf("matches = %+v", m.Comparators)
	}
	checkCompMatchExact(t, o, m.Comparators[0])
}

func TestDetectRejectsNonComparator(t *testing.T) {
	// z = parity(a) XOR parity(b): matches no comparator.
	c := circuit.New()
	a := c.AddPIWord("a", 4)
	b := c.AddPIWord("b", 4)
	c.AddPO("z", c.Xor(c.XorTree(a), c.XorTree(b)))
	o := oracle.FromCircuit(c)
	m := Detect(o, Config{Samples: 256, Verify: 48}, rand.New(rand.NewSource(5)))
	if len(m.Comparators) != 0 {
		t.Fatalf("false comparator match: %+v", m.Comparators)
	}
}

func TestDetectLinearArithmetic(t *testing.T) {
	// z = 3a + 2b + 5 (mod 64) over named buses, plus an unused single.
	const w = 6
	c := circuit.New()
	a := c.AddPIWord("a", w)
	b := c.AddPIWord("b", w)
	c.AddPI("spare")
	sum := c.AddWords(c.AddWords(c.MulConst(a, 3, w), c.MulConst(b, 2, w)), c.ConstWord(5, w))
	c.AddPOWord("z", sum)
	o := oracle.FromCircuit(c)

	m := Detect(o, Config{Samples: 64, Verify: 48}, rand.New(rand.NewSource(6)))
	if len(m.Linear) != 1 {
		t.Fatalf("linear matches = %+v", m.Linear)
	}
	lm := m.Linear[0]
	if lm.B != 5 {
		t.Fatalf("B = %d, want 5", lm.B)
	}
	coeffs := map[string]uint64{}
	for _, term := range lm.Terms {
		coeffs[term.Vec.Stem] = term.A
	}
	if coeffs["a"] != 3 || coeffs["b"] != 2 {
		t.Fatalf("coeffs = %v", coeffs)
	}
	// Every output bit must be covered.
	covered := m.MatchedOutputs()
	if len(covered) != w {
		t.Fatalf("covered outputs = %v", covered)
	}
}

func TestDetectLinearSubtraction(t *testing.T) {
	// z = a - b (mod 16): coefficient of b is 15.
	const w = 4
	c := circuit.New()
	a := c.AddPIWord("a", w)
	b := c.AddPIWord("b", w)
	c.AddPOWord("z", c.SubWords(a, b))
	o := oracle.FromCircuit(c)
	m := Detect(o, Config{Samples: 64, Verify: 48}, rand.New(rand.NewSource(7)))
	if len(m.Linear) != 1 {
		t.Fatalf("linear matches = %+v", m.Linear)
	}
	for _, term := range m.Linear[0].Terms {
		switch term.Vec.Stem {
		case "a":
			if term.A != 1 {
				t.Fatalf("coeff a = %d", term.A)
			}
		case "b":
			if term.A != 15 {
				t.Fatalf("coeff b = %d", term.A)
			}
		}
	}
}

func TestLinearSynthesizeMatchesOracle(t *testing.T) {
	const w = 4
	c := circuit.New()
	a := c.AddPIWord("a", w)
	b := c.AddPIWord("b", w)
	c.AddPOWord("z", c.AddWords(c.MulConst(a, 5, w), c.AddWords(b, c.ConstWord(3, w))))
	o := oracle.FromCircuit(c)
	m := Detect(o, Config{Samples: 64, Verify: 48}, rand.New(rand.NewSource(8)))
	if len(m.Linear) != 1 {
		t.Fatalf("linear matches = %+v", m.Linear)
	}
	lm := m.Linear[0]

	cc := circuit.New()
	piSigs := make([]circuit.Signal, o.NumInputs())
	for i, name := range o.InputNames() {
		piSigs[i] = cc.AddPI(name)
	}
	outW := lm.Synthesize(cc, piSigs)
	cc.AddPOWord("z", outW)
	for m := 0; m < 1<<uint(2*w); m++ {
		assign := make([]bool, 2*w)
		for i := range assign {
			assign[i] = m>>uint(i)&1 == 1
		}
		want := oracle.Eval(o, assign)
		got := cc.Eval(assign)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("synthesized linear wrong at %b bit %d", m, j)
			}
		}
	}
}

func TestDetectLinearRejectsNonLinear(t *testing.T) {
	// z = a AND b bitwise is not affine.
	const w = 4
	c := circuit.New()
	a := c.AddPIWord("a", w)
	b := c.AddPIWord("b", w)
	z := make(circuit.Word, w)
	for i := range z {
		z[i] = c.And(a[i], b[i])
	}
	c.AddPOWord("z", z)
	o := oracle.FromCircuit(c)
	m := Detect(o, Config{Samples: 64, Verify: 48}, rand.New(rand.NewSource(9)))
	if len(m.Linear) != 0 {
		t.Fatalf("false linear match: %+v", m.Linear)
	}
}

func TestDetectHiddenComparator(t *testing.T) {
	// PO = d XOR (Na < Nb): the comparator is not a PO by itself.
	const w = 3
	c := circuit.New()
	a := c.AddPIWord("a", w)
	b := c.AddPIWord("b", w)
	d := c.AddPI("d")
	c.AddPO("z", c.Xor(d, c.LtWords(a, b)))
	o := oracle.FromCircuit(c)

	g := names.Group(o.InputNames())
	if len(g.Vectors) != 2 {
		t.Fatalf("grouping = %+v", g)
	}
	hm, ok := DetectHidden(o, g.Vectors[0], g.Vectors[1], 4, Config{Samples: 64, Verify: 32}, rand.New(rand.NewSource(10)))
	if !ok {
		t.Fatal("hidden comparator not found")
	}
	if hm.Op != LT || hm.V1.Stem != "a" {
		// Negated GE over (a,b) is the same function.
		if !(hm.Op == GE && hm.Negated) {
			t.Fatalf("hidden match = %+v", hm.CompMatch)
		}
	}
}

func TestCompressedOracle(t *testing.T) {
	// PO = d XOR (Na < Nb). Compressing on (a<b) leaves inputs {d, delegate}.
	const w = 3
	c := circuit.New()
	a := c.AddPIWord("a", w)
	b := c.AddPIWord("b", w)
	d := c.AddPI("d")
	c.AddPO("z", c.Xor(d, c.LtWords(a, b)))
	o := oracle.FromCircuit(c)

	g := names.Group(o.InputNames())
	cm := CompMatch{Out: 0, Op: LT, V1: g.Vectors[0], V2: &g.Vectors[1]}
	rng := rand.New(rand.NewSource(11))
	co, ok := NewCompressed(o, cm, rng)
	if !ok {
		t.Fatal("compression failed")
	}
	if co.NumInputs() != 2 {
		t.Fatalf("compressed inputs = %d (%v)", co.NumInputs(), co.InputNames())
	}
	if co.KeptInput(0) != 6 { // d is original input index 6
		t.Fatalf("kept input = %d", co.KeptInput(0))
	}
	// Compressed semantics: z = d XOR delegate.
	for _, dv := range []bool{false, true} {
		for _, sv := range []bool{false, true} {
			got := oracle.Eval(co, []bool{dv, sv})[0]
			if got != (dv != sv) {
				t.Fatalf("compressed eval(%v,%v) = %v", dv, sv, got)
			}
		}
	}
	// A 64-pattern batch must agree with one-pattern queries.
	in := []uint64{0xF0F0F0F0F0F0F0F0, 0xAAAAAAAAAAAAAAAA}
	words := co.EvalBatch(in, 64)
	for k := 0; k < 64; k++ {
		assign := []bool{in[0]>>uint(k)&1 == 1, in[1]>>uint(k)&1 == 1}
		if oracle.Eval(co, assign)[0] != (words[0]>>uint(k)&1 == 1) {
			t.Fatalf("compressed batch/single mismatch at pattern %d", k)
		}
	}
}

// TestCompressedChargesExactBatch: a batch through a compressed view reaches
// the oracle below as one batch of the same n patterns, so a counter there
// is charged n, not a whole number of 64-pattern words.
func TestCompressedChargesExactBatch(t *testing.T) {
	c := circuit.New()
	a := c.AddPIWord("a", 3)
	b := c.AddPIWord("b", 3)
	d := c.AddPI("d")
	c.AddPO("z", c.Xor(d, c.LtWords(a, b)))
	counter := oracle.NewCounter(oracle.FromCircuit(c))
	g := names.Group(counter.InputNames())
	cm := CompMatch{Out: 0, Op: LT, V1: g.Vectors[0], V2: &g.Vectors[1]}
	co, ok := NewCompressed(counter, cm, rand.New(rand.NewSource(11)))
	if !ok {
		t.Fatal("compression failed")
	}
	const n = 100
	w := oracle.Words(n)
	rng := rand.New(rand.NewSource(3))
	lanes := make([]bitvec.Word, co.NumInputs()*w)
	for i := range lanes {
		lanes[i] = rng.Uint64()
	}
	out := co.EvalBatch(lanes, n)
	if got := counter.Queries(); got != n {
		t.Fatalf("counter under the compressed view charged %d queries for a %d-pattern batch, want %d", got, n, n)
	}
	// Compressed semantics: z = d XOR delegate, on every live pattern.
	for k := 0; k < n; k++ {
		bit := func(ls []bitvec.Word, i int) bool { return ls[i*w+k/64]>>uint(k%64)&1 == 1 }
		if bit(out, 0) != (bit(lanes, 0) != bit(lanes, 1)) {
			t.Fatalf("pattern %d: compressed batch answered %v", k, bit(out, 0))
		}
	}
}

func TestMakePair(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for op := EQ; op < numPredicates; op++ {
		for _, want := range []bool{false, true} {
			x1, x2, ok := makePair(op, want, 4, 4, rng)
			if !ok {
				t.Fatalf("makePair(%v, %v) failed", op, want)
			}
			if op.Eval(x1, x2) != want {
				t.Fatalf("makePair(%v, %v) returned (%d,%d)", op, want, x1, x2)
			}
		}
	}
	// Impossible: x2 of width 0 means LT can never hold.
	if _, _, ok := makePair(LT, true, 4, 0, rng); ok {
		t.Fatal("makePair invented a pair for an impossible relation")
	}
}

func TestPredicateEvalTable(t *testing.T) {
	cases := []struct {
		op   Predicate
		a, b uint64
		want bool
	}{
		{EQ, 3, 3, true}, {EQ, 3, 4, false},
		{NE, 3, 4, true}, {NE, 4, 4, false},
		{LT, 2, 3, true}, {LT, 3, 3, false},
		{LE, 3, 3, true}, {LE, 4, 3, false},
		{GT, 4, 3, true}, {GT, 3, 3, false},
		{GE, 3, 3, true}, {GE, 2, 3, false},
	}
	for _, tc := range cases {
		if tc.op.Eval(tc.a, tc.b) != tc.want {
			t.Errorf("%d %v %d != %v", tc.a, tc.op, tc.b, tc.want)
		}
	}
}

func TestPredicateBuildConstEdges(t *testing.T) {
	// LE max and GT max degenerate to constants.
	c := circuit.New()
	a := c.AddPIWord("a", 3)
	c.AddPO("le", LE.BuildConst(c, a, ^uint64(0)))
	c.AddPO("gt", GT.BuildConst(c, a, ^uint64(0)))
	out := c.Eval([]bool{true, true, true})
	if out[0] != true || out[1] != false {
		t.Fatalf("edge consts = %v", out)
	}
}

func TestDetectWideThresholdBinarySearch(t *testing.T) {
	// A 12-bit threshold forces many binary-search probes (the paper's
	// "constant identified through binary search").
	for _, k := range []uint64{1000, 1, 4095} {
		c := circuit.New()
		a := c.AddPIWord("level", 12)
		c.AddPO("alarm", c.LtConst(a, k))
		o := oracle.NewCounter(circuitOracle(c))
		m := Detect(o, Config{Samples: 256, Verify: 32}, rand.New(rand.NewSource(int64(k))))
		if len(m.Comparators) != 1 {
			t.Fatalf("k=%d: matches = %+v", k, m.Comparators)
		}
		checkCompMatchViaSampling(t, circuitOracle(c), m.Comparators[0], 2000)
	}
}

// circuitOracle is a tiny adapter to keep the new tests readable.
func circuitOracle(c *circuit.Circuit) oracle.Oracle { return oracle.FromCircuit(c) }

// checkCompMatchViaSampling verifies a match on random points (for inputs
// too wide to enumerate).
func checkCompMatchViaSampling(t *testing.T, o oracle.Oracle, cm CompMatch, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(777))
	for k := 0; k < trials; k++ {
		a := make([]bool, o.NumInputs())
		for i := range a {
			a[i] = rng.Intn(2) == 1
		}
		if cm.Predict(a) != oracle.Eval(o, a)[cm.Out] {
			t.Fatalf("match %+v wrong on random point", cm)
		}
	}
}

func TestDetectNegatedThreshold(t *testing.T) {
	// z = NOT(Na < 37) == (Na >= 37): must be matched (as GE or negated LT).
	c := circuit.New()
	a := c.AddPIWord("cnt", 8)
	c.AddPO("ge", c.NotGate(c.LtConst(a, 37)))
	o := circuitOracle(c)
	m := Detect(o, Config{Samples: 256, Verify: 32}, rand.New(rand.NewSource(4)))
	if len(m.Comparators) != 1 {
		t.Fatalf("matches = %+v", m.Comparators)
	}
	checkCompMatchViaSampling(t, o, m.Comparators[0], 2000)
}

func TestDetectMultipleOutputsMixedTemplates(t *testing.T) {
	// One black box mixing all three paper-family template kinds.
	c := circuit.New()
	a := c.AddPIWord("pa", 6)
	b := c.AddPIWord("pb", 6)
	c.AddPO("eq", c.EqWords(a, b))
	c.AddPO("th", c.LtConst(a, 19))
	c.AddPOWord("sum", c.AddWords(a, b))
	o := circuitOracle(c)
	m := Detect(o, Config{Samples: 256, Verify: 32}, rand.New(rand.NewSource(5)))
	if len(m.Comparators) != 2 {
		t.Fatalf("comparators = %+v", m.Comparators)
	}
	if len(m.Linear) != 1 {
		t.Fatalf("linear = %+v", m.Linear)
	}
	if len(m.MatchedOutputs()) != 8 {
		t.Fatalf("covered = %v", m.MatchedOutputs())
	}
}
