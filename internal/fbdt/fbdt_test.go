package fbdt

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
	"logicregression/internal/sop"
)

// checkLearned verifies the learned cover reproduces the oracle exactly over
// all 2^n assignments (only for small n).
func checkLearned(t *testing.T, o oracle.Oracle, out int, cover sop.Cover, negate bool) {
	t.Helper()
	n := o.NumInputs()
	for m := 0; m < 1<<uint(n); m++ {
		a := make([]bool, n)
		for i := 0; i < n; i++ {
			a[i] = m>>uint(i)&1 == 1
		}
		want := oracle.Eval(o, a)[out]
		got := cover.Eval(a) != negate
		if got != want {
			t.Fatalf("minterm %0*b: learned %v, oracle %v", n, m, got, want)
		}
	}
}

func majorityOracle() oracle.Oracle {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	d := c.AddPI("d")
	// majority(a,b,d)
	c.AddPO("z", c.Or(c.Or(c.And(a, b), c.And(a, d)), c.And(b, d)))
	return oracle.FromCircuit(c)
}

func TestBuildLearnsMajorityExactly(t *testing.T) {
	o := majorityOracle()
	rng := rand.New(rand.NewSource(1))
	res := Build(o, 0, Config{R: 128}, rng)
	cover, negate := res.Choose()
	checkLearned(t, o, 0, cover, negate)
	if res.Stats.Exhausted {
		t.Fatal("build should not have exhausted its budget")
	}
	if res.Stats.Leaves1 == 0 || res.Stats.Leaves0 == 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestBuildLearnsXorChain(t *testing.T) {
	// XOR needs a full tree: every variable matters everywhere.
	c := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < 5; i++ {
		sigs = append(sigs, c.AddPI(string(rune('a'+i))))
	}
	c.AddPO("z", c.XorTree(sigs))
	o := oracle.FromCircuit(c)
	rng := rand.New(rand.NewSource(2))
	res := Build(o, 0, Config{R: 64}, rng)
	cover, negate := res.Choose()
	checkLearned(t, o, 0, cover, negate)
	// XOR over 5 vars has 16 onset and 16 offset minterms.
	if len(res.Onset) != 16 || len(res.Offset) != 16 {
		t.Fatalf("onset/offset sizes = %d/%d, want 16/16", len(res.Onset), len(res.Offset))
	}
}

func TestBuildConstantFunctions(t *testing.T) {
	for _, val := range []bool{false, true} {
		c := circuit.New()
		c.AddPI("a")
		c.AddPI("b")
		c.AddPO("z", c.Const(val))
		o := oracle.FromCircuit(c)
		rng := rand.New(rand.NewSource(3))
		res := Build(o, 0, Config{R: 64}, rng)
		cover, negate := res.Choose()
		checkLearned(t, o, 0, cover, negate)
		if res.Stats.NodesExpanded != 0 {
			t.Fatalf("constant %v expanded %d nodes", val, res.Stats.NodesExpanded)
		}
	}
}

func TestBuildRespectsCandidates(t *testing.T) {
	// z = a XOR b, with candidates restricted to {0}: the tree can only
	// split on a, then must majority-vote the residual (which is 50/50).
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	c.AddPO("z", c.Xor(a, b))
	o := oracle.FromCircuit(c)
	rng := rand.New(rand.NewSource(4))
	res := Build(o, 0, Config{R: 64, Candidates: []int{0}}, rng)
	for _, cube := range append(res.Onset, res.Offset...) {
		for _, l := range cube {
			if l.Var != 0 {
				t.Fatalf("cube %v uses non-candidate variable", cube)
			}
		}
	}
	if res.Stats.ApproxLeaves == 0 {
		t.Fatal("expected approximate leaves when candidates underapproximate support")
	}
}

func TestBuildOnsetOffsetChoice(t *testing.T) {
	// z = a AND b AND d: onset is 1 minterm, offset is 7. Choose must pick
	// the onset without negation.
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	d := c.AddPI("d")
	c.AddPO("z", c.And(c.And(a, b), d))
	o := oracle.FromCircuit(c)
	rng := rand.New(rand.NewSource(5))
	res := Build(o, 0, Config{R: 128}, rng)
	cover, negate := res.Choose()
	if negate {
		t.Fatal("AND3 should choose the onset")
	}
	if len(cover) != 1 {
		t.Fatalf("onset = %v, want single cube", cover)
	}
	checkLearned(t, o, 0, cover, negate)

	// z = a OR b OR d: offset is 1 minterm; Choose must negate.
	c2 := circuit.New()
	a2 := c2.AddPI("a")
	b2 := c2.AddPI("b")
	d2 := c2.AddPI("d")
	c2.AddPO("z", c2.Or(c2.Or(a2, b2), d2))
	o2 := oracle.FromCircuit(c2)
	res2 := Build(o2, 0, Config{R: 128}, rand.New(rand.NewSource(6)))
	cover2, negate2 := res2.Choose()
	if !negate2 {
		t.Fatal("OR3 should choose the offset")
	}
	checkLearned(t, o2, 0, cover2, negate2)
}

func TestBuildMaxNodesTruncates(t *testing.T) {
	c := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < 8; i++ {
		sigs = append(sigs, c.AddPI(string(rune('a'+i))))
	}
	c.AddPO("z", c.XorTree(sigs))
	o := oracle.FromCircuit(c)
	rng := rand.New(rand.NewSource(7))
	res := Build(o, 0, Config{R: 32, MaxNodes: 5}, rng)
	if !res.Stats.Exhausted {
		t.Fatal("expected exhausted build")
	}
	if res.Stats.NodesExpanded > 5 {
		t.Fatalf("expanded %d nodes, budget 5", res.Stats.NodesExpanded)
	}
	if res.Stats.ApproxLeaves == 0 {
		t.Fatal("expected approximate leaves")
	}
}

func TestBuildDeadlineTruncates(t *testing.T) {
	c := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < 10; i++ {
		sigs = append(sigs, c.AddPI(string(rune('a'+i))))
	}
	c.AddPO("z", c.XorTree(sigs))
	o := oracle.FromCircuit(c)
	rng := rand.New(rand.NewSource(8))
	res := Build(o, 0, Config{R: 32, Deadline: time.Now().Add(-time.Second)}, rng)
	if !res.Stats.Exhausted {
		t.Fatal("expired deadline should truncate")
	}
}

func TestBuildMaxDepth(t *testing.T) {
	c := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < 6; i++ {
		sigs = append(sigs, c.AddPI(string(rune('a'+i))))
	}
	c.AddPO("z", c.XorTree(sigs))
	o := oracle.FromCircuit(c)
	rng := rand.New(rand.NewSource(9))
	res := Build(o, 0, Config{R: 32, MaxDepth: 3}, rng)
	for _, cube := range append(res.Onset, res.Offset...) {
		if len(cube) > 3 {
			t.Fatalf("cube %v deeper than MaxDepth", cube)
		}
	}
}

func TestExhaustiveLearnsExactly(t *testing.T) {
	// Function over inputs {1,3} of a 5-input oracle; others ignored.
	c := circuit.New()
	c.AddPI("p0")
	a := c.AddPI("p1")
	c.AddPI("p2")
	b := c.AddPI("p3")
	c.AddPI("p4")
	c.AddPO("z", c.Xor(a, b))
	o := oracle.FromCircuit(c)
	rng := rand.New(rand.NewSource(10))
	res := Exhaustive(o, 0, []int{1, 3}, rng)
	if !res.Stats.Exhaustive {
		t.Fatal("Exhaustive flag not set")
	}
	cover, negate := res.Choose()
	checkLearned(t, o, 0, cover, negate)
	if res.RootTruthRatio != 0.5 {
		t.Fatalf("RootTruthRatio = %f, want 0.5", res.RootTruthRatio)
	}
}

func TestExhaustiveEmptySupport(t *testing.T) {
	c := circuit.New()
	c.AddPI("a")
	c.AddPO("z", c.Const(true))
	o := oracle.FromCircuit(c)
	res := Exhaustive(o, 0, nil, rand.New(rand.NewSource(11)))
	cover, negate := res.Choose()
	if (cover.Eval([]bool{false}) != negate) != true {
		t.Fatal("constant-1 not learned from empty support")
	}
}

func TestBuildDelegatesToExhaustive(t *testing.T) {
	o := majorityOracle()
	rng := rand.New(rand.NewSource(12))
	res := Build(o, 0, Config{R: 16, Candidates: []int{0, 1, 2}, ExhaustiveThreshold: 3}, rng)
	if !res.Stats.Exhaustive {
		t.Fatal("Build did not delegate to Exhaustive")
	}
	cover, negate := res.Choose()
	checkLearned(t, o, 0, cover, negate)
}

func TestBuildWithLeafEpsilonStopsEarly(t *testing.T) {
	// A 10-input OR is almost always 1 under even sampling; with a loose
	// epsilon the root itself becomes a 1-leaf.
	c := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < 10; i++ {
		sigs = append(sigs, c.AddPI(string(rune('a'+i))))
	}
	c.AddPO("z", c.OrTree(sigs))
	o := oracle.FromCircuit(c)
	rng := rand.New(rand.NewSource(13))
	res := Build(o, 0, Config{R: 64, Ratios: []float64{0.5}, LeafEpsilon: 0.05}, rng)
	if res.Stats.NodesExpanded != 0 {
		t.Fatalf("expanded %d nodes, want 0 with loose epsilon", res.Stats.NodesExpanded)
	}
	if len(res.Onset) != 1 || len(res.Onset[0]) != 0 {
		t.Fatalf("onset = %v, want the empty cube", res.Onset)
	}
}

func TestDepthFirstDigsDeeperUnderBudget(t *testing.T) {
	// Same function and node budget: the paper's levelized order explores
	// evenly while depth-first burns its budget down one branch, reaching
	// strictly deeper cubes. (This is the structural core of the paper's
	// remark that even exploration is more beneficial under truncation.)
	c := circuit.New()
	var sigs []circuit.Signal
	for i := 0; i < 12; i++ {
		sigs = append(sigs, c.AddPI(string(rune('a'+i))))
	}
	c.AddPO("z", c.XorTree(sigs))
	o := oracle.FromCircuit(c)

	bfs := Build(o, 0, Config{R: 32, MaxNodes: 40}, rand.New(rand.NewSource(5)))
	dfs := Build(o, 0, Config{R: 32, MaxNodes: 40, DepthFirst: true}, rand.New(rand.NewSource(5)))
	if dfs.Stats.MaxDepthReached <= bfs.Stats.MaxDepthReached {
		t.Fatalf("DFS depth %d <= BFS depth %d under the same budget",
			dfs.Stats.MaxDepthReached, bfs.Stats.MaxDepthReached)
	}
}

func TestExhaustiveMintermFallbackOnBudget(t *testing.T) {
	// Shrink the BDD budget so Exhaustive takes the explicit-minterm path;
	// the learned function must still be exact.
	old := exhaustiveBDDBudget
	exhaustiveBDDBudget = 4
	defer func() { exhaustiveBDDBudget = old }()

	o := majorityOracle()
	res := Exhaustive(o, 0, []int{0, 1, 2}, rand.New(rand.NewSource(20)))
	cover, negate := res.Choose()
	checkLearned(t, o, 0, cover, negate)
}

// TestBuildBatchMatchesScalar pins the batching-on/off equivalence of the
// tree builder: the batched truth-ratio probes and exhaustive sweep must
// consume the RNG in the scalar order and yield an identical Result.
func TestBuildBatchMatchesScalar(t *testing.T) {
	o := majorityOracle()
	cfg := Config{Candidates: []int{0, 1, 2}, R: 100, MaxDepth: 8}
	fast := Build(o, 0, cfg, rand.New(rand.NewSource(3)))
	slow := Build(oracle.ScalarOnly(o), 0, cfg, rand.New(rand.NewSource(3)))
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("Build diverges:\nbatch  %+v\nscalar %+v", fast, slow)
	}

	fastEx := Exhaustive(o, 0, []int{0, 1, 2}, rand.New(rand.NewSource(4)))
	slowEx := Exhaustive(oracle.ScalarOnly(o), 0, []int{0, 1, 2}, rand.New(rand.NewSource(4)))
	if !reflect.DeepEqual(fastEx, slowEx) {
		t.Fatalf("Exhaustive diverges:\nbatch  %+v\nscalar %+v", fastEx, slowEx)
	}
}
