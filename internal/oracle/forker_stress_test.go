package oracle_test

// Concurrent-session stress for the Forker contract: many goroutines each
// take a fork and hammer it with interleaved scalar and batch queries while
// the others do the same. Run under -race this is the safety witness for
// the serve layer, which hands one fork to every session and every job.

import (
	"sync"
	"testing"

	"logicregression/internal/bitvec"
	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
)

func stressBox() *circuit.Circuit {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	d := c.AddPI("d")
	e := c.AddPI("e")
	c.AddPO("x", c.Xor(c.And(a, b), d))
	c.AddPO("y", c.Or(c.Xor(a, e), c.And(b, d)))
	c.AddPO("z", c.And(c.Or(a, e), c.Xor(b, d)))
	return c
}

// golden precomputes every output for all 2^n assignments.
func goldenTable(c *circuit.Circuit) [][]bool {
	n := c.NumPI()
	table := make([][]bool, 1<<n)
	assign := make([]bool, n)
	for m := range table {
		for i := 0; i < n; i++ {
			assign[i] = m>>i&1 == 1
		}
		table[m] = c.Eval(assign)
	}
	return table
}

func TestForkerConcurrentSessions(t *testing.T) {
	box := stressBox()
	base := oracle.FromCircuit(box)
	table := goldenTable(box)
	nIn := base.NumInputs()
	nOut := base.NumOutputs()

	const sessions = 32
	const opsPerSession = 300

	// Every session also drives its own memo over its fork — the exact
	// chain the serve layer builds — and a shared memo is hammered by all
	// sessions at once to stress the atomic hit/miss/eviction counters.
	shared := oracle.NewMemoCap(base.Fork(), 64)

	var wg sync.WaitGroup
	errs := make(chan string, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			fork, ok := oracle.Oracle(base).(oracle.Forker)
			if !ok {
				errs <- "CircuitOracle lost the Forker interface"
				return
			}
			mine := oracle.NewMemoCap(fork.Fork(), 32)
			assign := make([]bool, nIn)
			for op := 0; op < opsPerSession; op++ {
				m := (sid*opsPerSession + op*7) % len(table)
				for i := 0; i < nIn; i++ {
					assign[i] = m>>i&1 == 1
				}
				var got []bool
				switch op % 3 {
				case 0:
					got = oracle.Eval(mine, assign)
				case 1:
					got = oracle.Eval(shared, assign)
				default:
					// The same one-pattern batch, packed by hand.
					lanes := make([]bitvec.Word, nIn)
					for i := 0; i < nIn; i++ {
						if assign[i] {
							lanes[i] = 1
						}
					}
					out := mine.EvalBatch(lanes, 1)
					got = make([]bool, nOut)
					for j := 0; j < nOut; j++ {
						got[j] = out[j]&1 == 1
					}
				}
				for j := 0; j < nOut; j++ {
					if got[j] != table[m][j] {
						errs <- "fork diverged from golden table"
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// The shared memo's atomic stats must account for exactly the queries
	// sent its way: one query per op%3==1 across all sessions.
	st := shared.Stats()
	wantShared := int64(sessions * opsPerSession / 3)
	if st.Hits+st.Misses != wantShared {
		t.Fatalf("shared memo hits+misses = %d, want %d", st.Hits+st.Misses, wantShared)
	}
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("shared memo stats %+v: want both hits and misses under contention", st)
	}
}

// statefulFork is a Forker whose forks carry private mutable state, proving
// the lifecycle promise: writes through one fork never alias another.
type statefulFork struct {
	oracle.Oracle
	mu    sync.Mutex
	count int64
}

func (s *statefulFork) Fork() oracle.Oracle {
	// Forks share the read-only inner oracle but get fresh counters.
	return &statefulFork{Oracle: s.Oracle}
}

func (s *statefulFork) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
	return s.Oracle.EvalBatch(patterns, n)
}

func TestForkerStateIsolation(t *testing.T) {
	base := &statefulFork{Oracle: oracle.FromCircuit(stressBox())}
	const forks = 16
	const per = 100
	var wg sync.WaitGroup
	handles := make([]*statefulFork, forks)
	for i := range handles {
		handles[i] = base.Fork().(*statefulFork)
	}
	assign := make([]bool, base.NumInputs())
	for _, h := range handles {
		wg.Add(1)
		go func(h *statefulFork) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				oracle.Eval(h, assign)
			}
		}(h)
	}
	wg.Wait()
	for i, h := range handles {
		if h.count != per {
			t.Fatalf("fork %d count = %d, want %d (state leaked across forks)", i, h.count, per)
		}
	}
	if base.count != 0 {
		t.Fatalf("base count = %d, want 0", base.count)
	}
}
