package support

import (
	"math/rand"
	"testing"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

// hiddenFn: out0 depends on {0,1,4}, out1 on {2}, out2 on nothing.
func hiddenFn() oracle.Oracle {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	x := c.AddPI("x")
	c.AddPI("unused")
	e := c.AddPI("e")
	c.AddPO("f", c.Or(c.And(a, b), e))
	c.AddPO("g", c.NotGate(x))
	c.AddPO("h", c.Const(true))
	return oracle.FromCircuit(c)
}

func TestIdentifyFindsExactSupport(t *testing.T) {
	o := hiddenFn()
	rng := rand.New(rand.NewSource(1))
	info := Identify(o, 0, Config{R: 512}, rng)
	want := []int{0, 1, 4}
	if len(info.Support) != len(want) {
		t.Fatalf("support = %v, want %v", info.Support, want)
	}
	for i := range want {
		if info.Support[i] != want[i] {
			t.Fatalf("support = %v, want %v", info.Support, want)
		}
	}
}

func TestIdentifySingleInputOutput(t *testing.T) {
	o := hiddenFn()
	rng := rand.New(rand.NewSource(2))
	info := Identify(o, 1, Config{R: 256}, rng)
	if len(info.Support) != 1 || info.Support[0] != 2 {
		t.Fatalf("support = %v, want [2]", info.Support)
	}
	if in, ok := info.MostSignificant(); !ok || in != 2 {
		t.Fatalf("MostSignificant = %d,%v", in, ok)
	}
}

func TestIdentifyConstantOutput(t *testing.T) {
	o := hiddenFn()
	rng := rand.New(rand.NewSource(3))
	info := Identify(o, 2, Config{R: 256}, rng)
	if len(info.Support) != 0 {
		t.Fatalf("constant output support = %v", info.Support)
	}
	if _, ok := info.MostSignificant(); ok {
		t.Fatal("constant output has a most-significant input")
	}
	if info.TruthRatio != 1 {
		t.Fatalf("TruthRatio = %f, want 1", info.TruthRatio)
	}
}

func TestIdentifyMultiRoundUnion(t *testing.T) {
	o := hiddenFn()
	rng := rand.New(rand.NewSource(4))
	one := Identify(o, 0, Config{R: 128, Rounds: 1}, rng)
	multi := Identify(o, 0, Config{R: 128, Rounds: 4}, rand.New(rand.NewSource(4)))
	if len(multi.Support) < len(one.Support) {
		t.Fatalf("multi-round support %v smaller than single-round %v", multi.Support, one.Support)
	}
}

func TestMostSignificantPrefersDominantInput(t *testing.T) {
	// f = e OR (a AND b): e flips f whenever a AND b = 0 (3/4 of the time
	// under even bias); a flips it only when b=1, e=0 (1/4). e must win.
	o := hiddenFn()
	rng := rand.New(rand.NewSource(5))
	info := Identify(o, 0, Config{R: 1024, Ratios: []float64{0.5}}, rng)
	if in, ok := info.MostSignificant(); !ok || in != 4 {
		t.Fatalf("MostSignificant = %d, want 4 (input e)", in)
	}
}

func TestWitnessFindsDependency(t *testing.T) {
	o := hiddenFn()
	rng := rand.New(rand.NewSource(6))
	a, ok := Witness(o, 0, 4, 200, rng)
	if !ok {
		t.Fatal("no witness found for a true dependency")
	}
	// Verify the witness actually flips the output.
	a[4] = false
	v0 := oracle.Eval(o, a)[0]
	a[4] = true
	v1 := oracle.Eval(o, a)[0]
	if v0 == v1 {
		t.Fatal("returned witness does not flip the output")
	}
}

func TestWitnessFailsOnIndependentInput(t *testing.T) {
	o := hiddenFn()
	rng := rand.New(rand.NewSource(7))
	if _, ok := Witness(o, 0, 3, 100, rng); ok {
		t.Fatal("witness found for an independent input")
	}
}

func TestIdentifyTruthRatioMatchesBias(t *testing.T) {
	// Output g = NOT x: truth ratio across the pool averages 1 - mean(pool).
	o := hiddenFn()
	rng := rand.New(rand.NewSource(8))
	info := Identify(o, 1, Config{R: 2048, Ratios: []float64{0.5}}, rng)
	if info.TruthRatio < 0.45 || info.TruthRatio > 0.55 {
		t.Fatalf("TruthRatio = %f, want ~0.5", info.TruthRatio)
	}
}
