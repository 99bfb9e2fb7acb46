package serve

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"logicregression/internal/core"
	"logicregression/internal/ioserve"
	"logicregression/internal/oracle"
)

// startWireService stands a full stack up on a loopback socket: service,
// protocol extension, ioserve server. Returns the address and the service.
func startWireService(t *testing.T, cfg Config) (string, *Service) {
	t.Helper()
	base := oracle.FromCircuit(testBox())
	svc := New(base, cfg)
	srv := ioserve.NewServer(base)
	srv.Ext = svc.Wire()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Shutdown(ln, time.Second)
		svc.Drain()
	})
	return ln.Addr().String(), svc
}

// pollDone polls job status over the wire until the job leaves the active
// states.
func pollDone(t *testing.T, cl *Client, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := cl.JobStatus(id)
		if err != nil {
			t.Fatalf("JobStatus: %v", err)
		}
		if st.State == JobDone || st.State == JobCanceled {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWireEndToEnd(t *testing.T) {
	box := testBox()
	const seed = 11
	want := netlistText(t, core.Learn(oracle.FromCircuit(box), core.Options{Seed: seed}).Circuit)

	addr, _ := startWireService(t, Config{Workers: 1})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	sid, err := cl.NewSession("acme")
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if !strings.HasPrefix(sid, "s") {
		t.Fatalf("session id %q", sid)
	}

	// Plain oracle queries still work on a v3 connection, now routed
	// through the session (and its memo).
	g := box
	in := []bool{true, true, false, true, false, true}
	wantOut := g.Eval(in)
	gotOut := oracle.Eval(cl, in)
	for i := range wantOut {
		if wantOut[i] != gotOut[i] {
			t.Fatalf("query through session diverged at output %d", i)
		}
	}

	jid, err := cl.Learn(seed)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	st := pollDone(t, cl, jid)
	if st.State != JobDone {
		t.Fatalf("job state = %s, want done", st.State)
	}
	if st.OutputsDone != 4 || st.TotalOut != 4 {
		t.Fatalf("status = %+v, want 4/4 outputs", st)
	}
	got, err := cl.NetlistText(jid)
	if err != nil {
		t.Fatalf("NetlistText: %v", err)
	}
	if got != want {
		t.Fatalf("wire netlist differs from in-process learn:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if cc, err := cl.Result(jid); err != nil || cc == nil {
		t.Fatalf("Result parse: %v", err)
	}

	snap, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if snap.Counters["jobs_completed"] != 1 {
		t.Fatalf("stats jobs_completed = %d, want 1", snap.Counters["jobs_completed"])
	}
	if snap.Counters["queries_total"] == 0 {
		t.Fatal("stats queries_total = 0")
	}

	if err := cl.CloseSession(); err != nil {
		t.Fatalf("CloseSession: %v", err)
	}
	if _, err := cl.Learn(seed); err == nil {
		t.Fatal("Learn without a session succeeded; want error")
	}
}

func TestWireCancelResumeByteIdentical(t *testing.T) {
	box := testBox()
	const seed = 13
	want := netlistText(t, core.Learn(oracle.FromCircuit(box), core.Options{Seed: seed}).Circuit)

	// Same deterministic handshake as the in-process test: the learner
	// blocks at its first output boundary until the job ID arrives.
	cancelAtFirstOutput := make(chan string)
	var armed sync.Once
	var svc *Service
	base := oracle.FromCircuit(box)
	svc = New(base, Config{
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
	srv := ioserve.NewServer(base)
	srv.Ext = svc.Wire()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		srv.Shutdown(ln, time.Second)
		svc.Drain()
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.NewSession("acme"); err != nil {
		t.Fatal(err)
	}
	jid, err := cl.Learn(seed)
	if err != nil {
		t.Fatal(err)
	}
	cancelAtFirstOutput <- jid
	st := pollDone(t, cl, jid)
	if st.State != JobCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if _, err := cl.NetlistText(jid); err == nil {
		t.Fatal("result of a canceled job succeeded; want error")
	}
	if err := cl.ResumeJob(jid); err != nil {
		t.Fatalf("ResumeJob: %v", err)
	}
	st = pollDone(t, cl, jid)
	if st.State != JobDone || st.Resumes != 1 {
		t.Fatalf("after resume: %+v, want done with 1 resume", st)
	}
	got, err := cl.NetlistText(jid)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed wire netlist differs from uninterrupted learn")
	}
}

func TestWireAdmissionRejectionsAreTransient(t *testing.T) {
	gate := make(chan struct{})
	base := oracle.FromCircuit(testBox())
	svc := New(base, Config{
		Workers:          1,
		QueueDepth:       1,
		MaxJobsPerTenant: 8,
		Learn: core.Options{
			Progress: func(ev core.Progress) {
				if ev.Phase == core.PhaseTemplates {
					<-gate
				}
			},
		},
	})
	srv := ioserve.NewServer(base)
	srv.Ext = svc.Wire()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		// Unblock the worker before draining, or Drain waits forever.
		close(gate)
		srv.Shutdown(ln, time.Second)
		svc.Drain()
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.NewSession("acme"); err != nil {
		t.Fatal(err)
	}
	j1, err := cl.Learn(1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cl.JobStatus(j1)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never picked j1 up")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cl.Learn(2); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Learn(3)
	if err == nil {
		t.Fatal("learn into a full queue succeeded; want transient rejection")
	}
	if !oracle.IsTransient(err) {
		t.Fatalf("queue-full error %v is not transient; ResilientClient would not back off", err)
	}
	// The connection survives the rejection: the next verb still works.
	if _, err := cl.JobStatus(j1); err != nil {
		t.Fatalf("connection dead after rejection: %v", err)
	}
}

func TestDialRejectsV2OnlyServer(t *testing.T) {
	// A plain ioserve server (no extension) tops out at protocol v2.
	base := oracle.FromCircuit(testBox())
	srv := ioserve.NewServer(base)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(ln, time.Second)
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("Dial against a v2-only server succeeded; want protocol error")
	}
}
