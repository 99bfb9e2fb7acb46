package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/oracle"
)

// testBox builds a small multi-output black box: enough outputs that a
// cancel at the first output boundary leaves real work undone, small
// enough that a learn completes in milliseconds.
func testBox() *circuit.Circuit {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	d := c.AddPI("d")
	e := c.AddPI("e")
	f := c.AddPI("f")
	g := c.AddPI("g")
	c.AddPO("z0", c.Xor(c.And(a, b), d))
	c.AddPO("z1", c.Or(c.And(e, f), g))
	c.AddPO("z2", c.Xor(a, c.Xor(e, g)))
	c.AddPO("z3", c.And(c.Or(a, d), c.Or(f, b)))
	return c
}

// netlistText serializes a circuit to canonical netlist bytes.
func netlistText(t *testing.T, c *circuit.Circuit) string {
	t.Helper()
	var sb strings.Builder
	if err := circuit.WriteNetlist(&sb, c); err != nil {
		t.Fatalf("WriteNetlist: %v", err)
	}
	return sb.String()
}

// waitTerminal waits for a job attempt's done channel.
func waitTerminal(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("job did not reach a terminal state")
	}
}

func TestJobLifecycle(t *testing.T) {
	svc := New(oracle.FromCircuit(testBox()), Config{Workers: 1})
	defer svc.Drain()
	sess, err := svc.NewSession("acme")
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	j, err := svc.Submit(sess, 7)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitTerminal(t, j.Done())
	if st := j.State(); st != JobDone {
		t.Fatalf("state = %s, want done", st)
	}
	res := j.Result()
	if res == nil || res.Circuit == nil {
		t.Fatal("done job has no result")
	}
	st := j.Status()
	if st.Queries == 0 || st.TotalOut != 4 || st.OutputsDone != 4 {
		t.Fatalf("status = %+v, want 4/4 outputs and nonzero queries", st)
	}
	if snap := svc.Registry().Snapshot(); snap.Counters["jobs_completed"] != 1 {
		t.Fatalf("jobs_completed = %d, want 1", snap.Counters["jobs_completed"])
	}
}

// TestCancelResumeByteIdentical is the acceptance check for resumable jobs:
// a fixed-seed learn that is cancelled at the first output boundary and
// resumed must produce the exact netlist bytes of an uninterrupted
// in-process learn, with the resume replaying already-paid queries from
// the job memo.
func TestCancelResumeByteIdentical(t *testing.T) {
	box := testBox()
	const seed = 7

	want := netlistText(t, core.Learn(oracle.FromCircuit(box), core.Options{Seed: seed}).Circuit)

	// The learner blocks at its first output boundary until the test hands
	// it the job ID to cancel; the hook runs synchronously on the learner
	// goroutine, so the cancel is observed at the very next boundary check
	// — deterministically mid-learn, with no race against a fast learn.
	cancelAtFirstOutput := make(chan string)
	var armed sync.Once
	var svc *Service
	svc = New(oracle.FromCircuit(box), Config{
		Workers: 1,
		Learn: core.Options{
			Progress: func(ev core.Progress) {
				if ev.Phase != core.PhaseOutput || ev.Output != 1 {
					return
				}
				armed.Do(func() {
					if err := svc.Cancel(<-cancelAtFirstOutput); err != nil {
						t.Errorf("Cancel: %v", err)
					}
				})
			},
		},
	})
	defer svc.Drain()

	sess, err := svc.NewSession("acme")
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	j, err := svc.Submit(sess, seed)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	cancelAtFirstOutput <- j.ID
	waitTerminal(t, j.Done())
	if st := j.State(); st != JobCanceled {
		t.Fatalf("state after cancel = %s, want canceled", st)
	}
	if j.Result() != nil {
		t.Fatal("canceled job leaked a partial result")
	}
	paidBefore := j.MemoStats().Misses

	if _, err := svc.Resume(j.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	waitTerminal(t, j.Done())
	if st := j.State(); st != JobDone {
		t.Fatalf("state after resume = %s, want done", st)
	}
	got := netlistText(t, j.Result().Circuit)
	if got != want {
		t.Fatalf("resumed netlist differs from uninterrupted learn:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	ms := j.MemoStats()
	if ms.Hits == 0 {
		t.Fatal("resume did not replay any queries from the memo")
	}
	if st := j.Status(); st.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", st.Resumes)
	}
	// The replayed prefix must not have been re-paid at the black box: the
	// second attempt's misses are only the queries the first attempt never
	// reached.
	if ms.Misses <= paidBefore/2 {
		t.Logf("misses before=%d after=%d hits=%d", paidBefore, ms.Misses, ms.Hits)
	}
}

// gatedService builds a service whose single worker blocks at the start of
// every learn until gate is closed — for exercising queue admission while
// a job is provably in flight.
func gatedService(t *testing.T, cfg Config) (*Service, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	cfg.Workers = 1
	cfg.Learn = core.Options{
		Progress: func(ev core.Progress) {
			if ev.Phase == core.PhaseTemplates {
				<-gate
			}
		},
	}
	svc := New(oracle.FromCircuit(testBox()), cfg)
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
		svc.Drain()
	})
	return svc, gate
}

func TestQueueFullRejectsFast(t *testing.T) {
	svc, gate := gatedService(t, Config{QueueDepth: 1, MaxJobsPerTenant: 8})
	sess, err := svc.NewSession("acme")
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	j1, err := svc.Submit(sess, 1)
	if err != nil {
		t.Fatalf("Submit j1: %v", err)
	}
	// Wait for the worker to pick j1 up so the queue slot is free again.
	deadline := time.Now().Add(5 * time.Second)
	for j1.State() != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up j1")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Submit(sess, 2); err != nil {
		t.Fatalf("Submit j2 (fills queue): %v", err)
	}
	start := time.Now()
	_, err = svc.Submit(sess, 3)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit j3 err = %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("queue-full rejection took %v; must be immediate", d)
	}
	if snap := svc.Registry().Snapshot(); snap.Counters["rejected_queue_full"] != 1 {
		t.Fatalf("rejected_queue_full = %d, want 1", snap.Counters["rejected_queue_full"])
	}
	close(gate)
}

func TestTenantJobQuota(t *testing.T) {
	svc, gate := gatedService(t, Config{QueueDepth: 16, MaxJobsPerTenant: 2})
	acme, _ := svc.NewSession("acme")
	other, _ := svc.NewSession("other")
	if _, err := svc.Submit(acme, 1); err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	if _, err := svc.Submit(acme, 2); err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	if _, err := svc.Submit(acme, 3); !errors.Is(err, ErrJobQuota) {
		t.Fatalf("Submit 3 err = %v, want ErrJobQuota", err)
	}
	// The quota is per tenant: another tenant still gets in.
	if _, err := svc.Submit(other, 4); err != nil {
		t.Fatalf("Submit for other tenant: %v", err)
	}
	close(gate)
}

func TestCancelQueuedJobFreesQuota(t *testing.T) {
	svc, gate := gatedService(t, Config{QueueDepth: 16, MaxJobsPerTenant: 2})
	sess, _ := svc.NewSession("acme")
	if _, err := svc.Submit(sess, 1); err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	j2, err := svc.Submit(sess, 2)
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	if err := svc.Cancel(j2.ID); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if st := j2.State(); st != JobCanceled {
		t.Fatalf("state = %s, want canceled", st)
	}
	// The quota slot must free immediately.
	if _, err := svc.Submit(sess, 3); err != nil {
		t.Fatalf("Submit 3 after cancel: %v", err)
	}
	if err := svc.Cancel(j2.ID); err == nil {
		t.Fatal("double cancel of a terminal job succeeded; want error")
	}
	close(gate)
}

func TestSessionQuotaAndClose(t *testing.T) {
	svc := New(oracle.FromCircuit(testBox()), Config{MaxSessionsPerTenant: 2, Workers: 1})
	defer svc.Drain()
	s1, err := svc.NewSession("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.NewSession("acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.NewSession("acme"); !errors.Is(err, ErrSessionQuota) {
		t.Fatalf("third session err = %v, want ErrSessionQuota", err)
	}
	if _, err := svc.NewSession("other"); err != nil {
		t.Fatalf("other tenant session: %v", err)
	}
	if err := svc.CloseSession(s1.ID); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if _, err := svc.NewSession("acme"); err != nil {
		t.Fatalf("session after close: %v", err)
	}
	if err := svc.CloseSession(s1.ID); err == nil {
		t.Fatal("closing a closed session succeeded; want error")
	}
	if _, err := svc.Submit(s1, 1); err == nil {
		t.Fatal("submit on a closed session succeeded; want error")
	}
}

func TestCloseSessionPrunesJobs(t *testing.T) {
	svc := New(oracle.FromCircuit(testBox()), Config{Workers: 1})
	defer svc.Drain()
	sess, _ := svc.NewSession("acme")
	j, err := svc.Submit(sess, 5)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j.Done())
	if _, ok := svc.Job(j.ID); !ok {
		t.Fatal("done job vanished while its session lives")
	}
	if err := svc.CloseSession(sess.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.Job(j.ID); ok {
		t.Fatal("job record survived its session; the jobs map would grow forever")
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	svc := New(oracle.FromCircuit(testBox()), Config{Workers: 1})
	sess, _ := svc.NewSession("acme")
	svc.Drain()
	if svc.Healthy() {
		t.Fatal("drained service reports healthy")
	}
	if _, err := svc.NewSession("t"); !errors.Is(err, ErrDraining) {
		t.Fatalf("NewSession err = %v, want ErrDraining", err)
	}
	if _, err := svc.Submit(sess, 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit err = %v, want ErrDraining", err)
	}
}

func TestSessionOracleMemoAndMetrics(t *testing.T) {
	svc := New(oracle.FromCircuit(testBox()), Config{Workers: 1})
	defer svc.Drain()
	sess, _ := svc.NewSession("acme")
	o := sess.Oracle()
	in := []bool{true, false, true, false, true, false}
	first := oracle.Eval(o, in)
	second := oracle.Eval(o, in)
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("memoized replay diverged")
		}
	}
	ms := sess.MemoStats()
	if ms.Hits == 0 || ms.Misses == 0 {
		t.Fatalf("memo stats = %+v, want one hit and one miss", ms)
	}
	snap := svc.Registry().Snapshot()
	if snap.Counters["queries_total"] != 2 {
		t.Fatalf("queries_total = %d, want 2", snap.Counters["queries_total"])
	}
	if snap.Histograms["query_latency"].Count != 2 {
		t.Fatalf("query_latency count = %d, want 2", snap.Histograms["query_latency"].Count)
	}
	if svc.MemoStats().Hits != 1 {
		t.Fatalf("service-wide memo hits = %d, want 1", svc.MemoStats().Hits)
	}
}

func TestResumeQueueFullRollsBack(t *testing.T) {
	svc, gate := gatedService(t, Config{QueueDepth: 1, MaxJobsPerTenant: 8})
	sess, _ := svc.NewSession("acme")
	j1, err := svc.Submit(sess, 1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j1.State() != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up j1")
		}
		time.Sleep(time.Millisecond)
	}
	j2, err := svc.Submit(sess, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	// j2's ghost still occupies the queue slot until the (blocked) worker
	// skims it, so the resume has nowhere to go.
	if _, err := svc.Resume(j2.ID); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Resume err = %v, want ErrQueueFull", err)
	}
	// The rollback must leave the job resumable.
	if st := j2.State(); st != JobCanceled {
		t.Fatalf("state after failed resume = %s, want canceled", st)
	}
	close(gate)
}
