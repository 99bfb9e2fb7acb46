package ioserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"logicregression/internal/bitvec"
	"logicregression/internal/chaos"
	"logicregression/internal/oracle"
)

// tryEval asks f one assignment, as a one-pattern batch.
func tryEval(f oracle.Fallible, a []bool) ([]bool, error) {
	lanes := make([]bitvec.Word, len(a))
	for i, bit := range a {
		if bit {
			lanes[i] = 1
		}
	}
	res, err := f.TryEvalBatch(lanes, 1)
	if err != nil {
		return nil, err
	}
	out := make([]bool, f.NumOutputs())
	for j := range out {
		out[j] = res[j]&1 == 1
	}
	return out, nil
}

// fastRetry keeps drills quick: generous attempt budget, millisecond
// backoff.
func fastRetry() RetryConfig {
	return RetryConfig{MaxAttempts: 12, Backoff: time.Millisecond,
		MaxBackoff: 5 * time.Millisecond, Seed: 1}
}

func fastDial() DialConfig {
	return DialConfig{ConnectTimeout: 2 * time.Second, IOTimeout: 2 * time.Second}
}

// startChaosServer serves o behind a fault-injecting listener and returns
// the address.
func startChaosServer(t *testing.T, o oracle.Oracle, cfg chaos.ConnConfig) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go NewServer(o).Serve(chaos.Listen(ln, cfg))
	return ln.Addr().String()
}

// TestResilientSurvivesConnectionDrops runs scalar and batch queries against
// a server whose connections die every few replies. Every answer must match
// the direct oracle and the client must have actually reconnected.
//
// DropAfter is sized so one full MaxFrame batch reply (~13 socket writes)
// fits in a session: reconnect-resume makes progress only when the server
// survives at least one complete exchange per connection.
func TestResilientSurvivesConnectionDrops(t *testing.T) {
	g := golden()
	direct := oracle.FromCircuit(g)
	addr := startChaosServer(t, direct, chaos.ConnConfig{DropAfter: 30})

	cl, err := DialResilient(addr, fastDial(), fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for m := 0; m < 32; m++ {
		a := []bool{m&1 == 1, m>>1&1 == 1, m>>2&1 == 1}
		want := direct.Eval(a)
		got, err := tryEval(cl, a)
		if err != nil {
			t.Fatalf("query %d: %v", m, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d output %d wrong after reconnects", m, j)
			}
		}
	}
	// A multi-chunk batch across the churning transport.
	n := MaxFrame + 100
	lanes := wireLanes(3, cl.NumInputs(), n)
	want := direct.EvalBatch(lanes, n)
	got, err := cl.TryEvalBatch(lanes, n)
	if err != nil {
		t.Fatal(err)
	}
	if !lanesEqual(got, want, cl.NumOutputs(), n) {
		t.Fatal("batch through churning transport diverges from direct oracle")
	}
	if cl.Redials() == 0 {
		t.Fatal("DropAfter listener never forced a reconnect — the drill tested nothing")
	}
}

// TestResilientRetriesTransientReplies drives a black box that answers a
// third of all exchanges with "error: transient". Retry-in-place must absorb
// every one without reconnecting (the stream stays intact).
func TestResilientRetriesTransientReplies(t *testing.T) {
	g := golden()
	direct := oracle.FromCircuit(g)
	flaky := chaos.Wrap(direct, chaos.Config{Seed: 3, ErrRate: 0.3})
	addr := startChaosServer(t, flaky, chaos.ConnConfig{})

	cl, err := DialResilient(addr, fastDial(), fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for m := 0; m < 64; m++ {
		a := []bool{m&1 == 1, m>>1&1 == 1, m>>2&1 == 1}
		want := direct.Eval(a)
		got, err := tryEval(cl, a)
		if err != nil {
			t.Fatalf("query %d: %v", m, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d output %d wrong after retries", m, j)
			}
		}
	}
	if cl.Retries() == 0 {
		t.Fatal("30%% error rate produced zero retries — the drill tested nothing")
	}
	if cl.Redials() != 0 {
		t.Fatalf("transient replies forced %d reconnects; they must be retried in place", cl.Redials())
	}
}

// rawServer runs a hand-rolled v1 server for greeting-level drills. Each
// accepted connection is passed to handle with its index (0-based).
func rawServer(t *testing.T, handle func(i int, conn net.Conn)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handle(i, conn)
		}
	}()
	return ln
}

// serveV1 answers a fixed greeting and then queries with constant-zero
// outputs until dropQuery, where the connection is cut without a reply.
func serveV1(conn net.Conn, ins, outs string, dropQuery int) {
	defer conn.Close()
	fmt.Fprintf(conn, "inputs %s\noutputs %s\n", ins, outs)
	sc := bufio.NewScanner(conn)
	q := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "quit":
			return
		case strings.HasPrefix(line, "proto "):
			fmt.Fprintln(conn, "error: unknown command")
		default:
			if q == dropQuery {
				return // cut mid-query: the client sees EOF
			}
			q++
			fmt.Fprintln(conn, strings.Repeat("0", len(strings.Fields(outs))))
		}
	}
}

// TestResilientServerChangedIsFatal reconnects to a server that now greets
// with different port names. That is a different black box: the client must
// fail permanently with ErrServerChanged, not resume against it.
func TestResilientServerChangedIsFatal(t *testing.T) {
	ln := rawServer(t, func(i int, conn net.Conn) {
		if i == 0 {
			serveV1(conn, "a b d", "z w", 1) // greet, answer one query, then cut
		} else {
			serveV1(conn, "a b", "z", -1) // a different black box
		}
	})
	cl, err := DialResilient(ln.Addr().String(), fastDial(), fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a := []bool{true, false, true}
	if _, err := tryEval(cl, a); err != nil {
		t.Fatalf("first query against healthy session: %v", err)
	}
	_, err = tryEval(cl, a)
	if !errors.Is(err, ErrServerChanged) {
		t.Fatalf("resumed against a different black box: err = %v", err)
	}
	if oracle.IsTransient(err) {
		t.Fatal("ErrServerChanged must be permanent, not transient")
	}
}

// TestResilientGivesUpWhenServerGone exhausts the attempt budget against a
// server that vanished, and the surfaced error must be permanent — retrying
// a dead address forever would hang the learn instead of degrading it.
func TestResilientGivesUpWhenServerGone(t *testing.T) {
	ln := rawServer(t, func(i int, conn net.Conn) {
		serveV1(conn, "a b d", "z w", 0) // greet then cut on the first query
	})
	retry := RetryConfig{MaxAttempts: 3, Backoff: time.Millisecond,
		MaxBackoff: 2 * time.Millisecond, Seed: 1}
	cl, err := DialResilient(ln.Addr().String(), fastDial(), retry)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ln.Close() // no reconnect target

	_, err = tryEval(cl, []bool{true, false, true})
	if err == nil {
		t.Fatal("query against a vanished server succeeded")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("expected an exhausted-budget error, got: %v", err)
	}
	if oracle.IsTransient(err) {
		t.Fatal("an exhausted retry budget must surface as permanent, not transient")
	}
}

// TestResilientCloseDuringServerChurn tears the client down while worker
// goroutines hammer it across a transport that drops every few replies.
// Under -race this checks the session lock; functionally, nothing may panic
// and post-Close operations must fail with ErrClientClosed.
func TestResilientCloseDuringServerChurn(t *testing.T) {
	addr := startChaosServer(t, oracle.FromCircuit(golden()), chaos.ConnConfig{DropAfter: 4})
	cl, err := DialResilient(addr, fastDial(), fastRetry())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; ; q++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once Close lands; panics are not.
				tryEval(cl, []bool{q&1 == 1, w&1 == 1, true})
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	if err := cl.Close(); err != nil {
		t.Errorf("Close during churn: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Errorf("second Close not idempotent: %v", err)
	}
	close(stop)
	wg.Wait()

	if _, err := tryEval(cl, []bool{true, true, true}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("query after Close: err = %v, want ErrClientClosed", err)
	}
}

// TestClientCloseIdempotentAndReportsFlushError covers the polite-quit
// contract: Close on a healthy session flushes "quit" and succeeds, a second
// Close is a no-op, and Close over an already-severed transport reports the
// failure instead of swallowing it.
func TestClientCloseIdempotentAndReportsFlushError(t *testing.T) {
	addr := startServer(t, oracle.FromCircuit(golden()))

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close on healthy session: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := tryEval(cl, []bool{true, false, true}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("query after Close: err = %v, want ErrClientClosed", err)
	}

	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cl2.conn.Close() // sever the transport behind the client's back
	if err := cl2.Close(); err == nil {
		t.Fatal("Close over a severed transport reported success")
	}
}

// TestDialClosesConnOnBadGreeting checks the no-fd-leak contract: when the
// greeting is garbage the client must close the socket, which the server
// observes as EOF.
func TestDialClosesConnOnBadGreeting(t *testing.T) {
	sawEOF := make(chan error, 1)
	ln := rawServer(t, func(i int, conn net.Conn) {
		defer conn.Close()
		fmt.Fprintln(conn, "hello there")
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := conn.Read(make([]byte, 1))
		sawEOF <- err
	})
	if _, err := DialWith(ln.Addr().String(), fastDial()); err == nil {
		t.Fatal("Dial accepted a garbage greeting")
	}
	if err := <-sawEOF; err == nil {
		t.Fatal("client kept the socket open after a failed Dial")
	}
}

// TestResilientV1Fallback pins the downgrade path: against a v1-only server
// the resilient client stays on the line protocol and still answers batches.
func TestResilientV1Fallback(t *testing.T) {
	g := golden()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewServer(oracle.FromCircuit(g))
	srv.V1Only = true
	go srv.Serve(ln)

	cl, err := DialResilient(ln.Addr().String(), fastDial(), fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Proto() != 1 {
		t.Fatalf("Proto() = %d against a v1-only server", cl.Proto())
	}
	n := 2*v1PipelineChunk + 9
	lanes := wireLanes(7, cl.NumInputs(), n)
	want := oracle.FromCircuit(g).EvalBatch(lanes, n)
	got, err := cl.TryEvalBatch(lanes, n)
	if err != nil {
		t.Fatal(err)
	}
	if !lanesEqual(got, want, cl.NumOutputs(), n) {
		t.Fatal("v1 fallback batch diverges from direct evaluation")
	}
}

// TestResilientV1ResumesAcrossDrops pins the batch-resume path: on v1 every
// reply is its own socket write, so a transport that drops each connection
// after a dozen writes can never carry a whole batch — progress only
// happens because banked replies survive the redial (and bank progress
// refills the attempt budget). Completing the batch therefore requires far
// more sessions than MaxAttempts, which a fixed budget would forbid.
func TestResilientV1ResumesAcrossDrops(t *testing.T) {
	g := golden()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewServer(oracle.FromCircuit(g))
	srv.V1Only = true
	go srv.Serve(chaos.Listen(ln, chaos.ConnConfig{DropAfter: 12}))

	retry := fastRetry()
	cl, err := DialResilient(ln.Addr().String(), fastDial(), retry)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	n := 4 * v1PipelineChunk
	lanes := wireLanes(5, cl.NumInputs(), n)
	want := oracle.FromCircuit(g).EvalBatch(lanes, n)
	got, err := cl.TryEvalBatch(lanes, n)
	if err != nil {
		t.Fatal(err)
	}
	if !lanesEqual(got, want, cl.NumOutputs(), n) {
		t.Fatal("resumed v1 batch diverges from direct evaluation")
	}
	if cl.Redials() <= int64(retry.MaxAttempts) {
		t.Fatalf("batch finished in %d redials (budget %d) — the drill never exercised resume",
			cl.Redials(), retry.MaxAttempts)
	}
}
