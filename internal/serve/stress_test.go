package serve

// Fleet stress: ≥1000 concurrent clients against one service over an
// in-memory pipe transport (no sockets, no fd limits), with a zero
// goroutine-leak gate at the end. This is the test behind the
// BENCH_serve.json smoke job in CI.

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logicregression/internal/ioserve"
	"logicregression/internal/oracle"
)

// waitGoroutines polls until the live goroutine count drops to at most
// want, failing the test if it never does — the zero-leak gate.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d live, want <= %d\n%s", n, want, buf)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestThousandConcurrentClients(t *testing.T) {
	const clients = 1000
	const learnEvery = 50 // every 50th client also runs a learn job

	baseline := runtime.NumGoroutine()

	base := oracle.FromCircuit(testBox())
	svc := New(base, Config{
		Workers:          2,
		QueueDepth:       64,
		MaxJobsPerTenant: 2,
	})
	srv := ioserve.NewServer(base)
	srv.Ext = svc.Wire()
	ln := NewPipeListener()
	serveDone := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(serveDone)
	}()

	var peak atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := ln.Dial()
			if err != nil {
				errs <- fmt.Errorf("client %d dial: %w", id, err)
				return
			}
			cl, err := NewClientConn(conn, ioserve.DialConfig{IOTimeout: 30 * time.Second})
			if err != nil {
				errs <- fmt.Errorf("client %d handshake: %w", id, err)
				return
			}
			defer cl.Close()
			// Barrier: every client holds its connection open until all
			// 1000 are connected, so the load really is concurrent.
			<-start
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			tenant := fmt.Sprintf("t%d", id%97)
			if _, err := cl.NewSession(tenant); err != nil {
				errs <- fmt.Errorf("client %d session: %w", id, err)
				return
			}
			in := make([]bool, 6)
			for q := 0; q < 3; q++ {
				for b := range in {
					in[b] = (id+q)>>b&1 == 1
				}
				oracle.Eval(cl, in)
			}
			if id%learnEvery == 0 {
				jid, err := cl.Learn(int64(id))
				if err != nil {
					// Admission rejections under load are legitimate —
					// but they must be transient, never fatal.
					if !oracle.IsTransient(err) {
						errs <- fmt.Errorf("client %d learn: non-transient %w", id, err)
					}
				} else {
					deadline := time.Now().Add(60 * time.Second)
					for {
						st, err := cl.JobStatus(jid)
						if err != nil {
							errs <- fmt.Errorf("client %d status: %w", id, err)
							return
						}
						if st.State == JobDone {
							break
						}
						if time.Now().After(deadline) {
							errs <- fmt.Errorf("client %d job %s stuck in %s", id, jid, st.State)
							return
						}
						time.Sleep(5 * time.Millisecond)
					}
				}
			}
			if err := cl.CloseSession(); err != nil {
				errs <- fmt.Errorf("client %d close session: %w", id, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	var failed int
	for err := range errs {
		failed++
		if failed <= 5 {
			t.Error(err)
		}
	}
	if failed > 5 {
		t.Errorf("... and %d more client errors", failed-5)
	}

	if p := peak.Load(); p < clients {
		t.Errorf("peak goroutines %d < %d: clients were not concurrent", p, clients)
	}
	snap := svc.Registry().Snapshot()
	if snap.Counters["sessions_opened"] != clients {
		t.Errorf("sessions_opened = %d, want %d", snap.Counters["sessions_opened"], clients)
	}
	if snap.Counters["queries_total"] < clients {
		t.Errorf("queries_total = %d, want >= %d", snap.Counters["queries_total"], clients)
	}
	if done := snap.Counters["jobs_completed"]; done == 0 {
		t.Error("no learn jobs completed under load")
	}

	ln.Close()
	if err := srv.Shutdown(ln, 5*time.Second); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Errorf("shutdown: %v", err)
	}
	<-serveDone
	svc.Drain()

	// The zero-leak gate: everything the fleet spawned — 1000 handlers,
	// 1000 clients, workers — must be gone.
	waitGoroutines(t, baseline+2)
}
