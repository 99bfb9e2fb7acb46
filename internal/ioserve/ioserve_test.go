package ioserve

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"logicregression/internal/bitvec"
	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/eval"
	"logicregression/internal/oracle"
)

func startServer(t *testing.T, o oracle.Oracle) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go NewServer(o).Serve(ln)
	return ln.Addr().String()
}

func golden() *circuit.Circuit {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	d := c.AddPI("d")
	c.AddPO("z", c.Xor(c.And(a, b), d))
	c.AddPO("w", c.Or(a, d))
	return c
}

func TestClientMatchesDirectOracle(t *testing.T) {
	g := golden()
	addr := startServer(t, oracle.FromCircuit(g))
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.NumInputs() != 3 || cl.NumOutputs() != 2 {
		t.Fatalf("arity %d/%d", cl.NumInputs(), cl.NumOutputs())
	}
	if cl.InputNames()[2] != "d" || cl.OutputNames()[1] != "w" {
		t.Fatalf("names %v %v", cl.InputNames(), cl.OutputNames())
	}
	for m := 0; m < 8; m++ {
		assign := []bool{m&1 == 1, m>>1&1 == 1, m>>2&1 == 1}
		want := g.Eval(assign)
		got := oracle.Eval(cl, assign)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("m=%d output %d mismatch", m, j)
			}
		}
	}
}

func TestTwoConcurrentClients(t *testing.T) {
	g := golden()
	addr := startServer(t, oracle.FromCircuit(g))
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	a := []bool{true, true, false}
	if oracle.Eval(c1, a)[0] != oracle.Eval(c2, a)[0] {
		t.Fatal("clients disagree")
	}
}

func TestServerRejectsMalformedQueriesButStaysUp(t *testing.T) {
	addr := startServer(t, oracle.FromCircuit(golden()))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewScanner(conn)
	r.Scan()                  // inputs
	r.Scan()                  // outputs
	fmt.Fprintln(conn, "10")  // wrong arity
	fmt.Fprintln(conn, "1x0") // bad character
	fmt.Fprintln(conn, "110") // valid
	var lines []string
	for i := 0; i < 3 && r.Scan(); i++ {
		lines = append(lines, r.Text())
	}
	if len(lines) != 3 {
		t.Fatalf("replies: %v", lines)
	}
	if !strings.HasPrefix(lines[0], "error:") || !strings.HasPrefix(lines[1], "error:") {
		t.Fatalf("malformed queries not rejected: %v", lines)
	}
	if strings.HasPrefix(lines[2], "error:") {
		t.Fatalf("valid query rejected: %v", lines[2])
	}
}

func TestLearnThroughTheWire(t *testing.T) {
	// End-to-end: the full pipeline driving a remote black box.
	g := golden()
	addr := startServer(t, oracle.FromCircuit(g))
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res := core.Learn(cl, core.Options{Seed: 1, SupportR: 128, DisableOptimization: true})
	rep := eval.Measure(oracle.FromCircuit(g), oracle.FromCircuit(res.Circuit),
		eval.Config{Patterns: 2000, Seed: 5})
	if rep.Accuracy != 1 {
		t.Fatalf("accuracy through the wire = %f", rep.Accuracy)
	}
}

func TestDialFailsOnBadGreeting(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fmt.Fprintln(conn, "hello there")
		conn.Close()
	}()
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("Dial accepted a bad greeting")
	}
}

// wireLanes draws a seeded batch of n patterns for an nIn-input oracle.
func wireLanes(seed int64, nIn, n int) []bitvec.Word {
	rng := rand.New(rand.NewSource(seed))
	w := oracle.Words(n)
	lanes := make([]bitvec.Word, nIn*w)
	for i := range lanes {
		lanes[i] = rng.Uint64()
	}
	return lanes
}

func lanesEqual(got, want []bitvec.Word, nOut, n int) bool {
	w := oracle.Words(n)
	for j := 0; j < nOut; j++ {
		for b := 0; b < w; b++ {
			mask := ^bitvec.Word(0)
			if last := n - b*64; last < 64 {
				mask = 1<<uint(last) - 1
			}
			if got[j*w+b]&mask != want[j*w+b]&mask {
				return false
			}
		}
	}
	return true
}

func TestV2UpgradeAndBatchParity(t *testing.T) {
	g := golden()
	addr := startServer(t, oracle.FromCircuit(g))
	cl, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Proto() != 2 {
		t.Fatalf("Proto() = %d after successful upgrade", cl.Proto())
	}
	// More than one frame's worth of queries to exercise frame splitting.
	n := MaxFrame + 77
	lanes := wireLanes(11, cl.NumInputs(), n)
	want := oracle.FromCircuit(g).EvalBatch(lanes, n)
	got := cl.EvalBatch(lanes, n)
	if !lanesEqual(got, want, cl.NumOutputs(), n) {
		t.Fatal("v2 wire batch diverges from direct evaluation")
	}
	// Scalar queries still work on an upgraded session.
	a := []bool{true, false, true}
	direct := oracle.FromCircuit(g).Eval(a)
	for j, bit := range oracle.Eval(cl, a) {
		if bit != direct[j] {
			t.Fatalf("scalar query on v2 session wrong at output %d", j)
		}
	}
}

func TestV1OnlyServerFallback(t *testing.T) {
	g := golden()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewServer(oracle.FromCircuit(g))
	srv.V1Only = true
	go srv.Serve(ln)

	cl, err := DialV2(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Proto() != 1 {
		t.Fatalf("Proto() = %d against a v1-only server", cl.Proto())
	}
	if cl.TryUpgrade() {
		t.Fatal("second TryUpgrade claimed v2 on a v1-only server")
	}
	// Batch queries must still work, pipelined over the line protocol, across
	// several pipeline chunks.
	n := 5*v1PipelineChunk + 13
	lanes := wireLanes(23, cl.NumInputs(), n)
	want := oracle.FromCircuit(g).EvalBatch(lanes, n)
	got := cl.EvalBatch(lanes, n)
	if !lanesEqual(got, want, cl.NumOutputs(), n) {
		t.Fatal("v1 pipelined batch diverges from direct evaluation")
	}
}

func TestServerClosesOnUntrustedBatchSize(t *testing.T) {
	addr := startServer(t, oracle.FromCircuit(golden()))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewScanner(conn)
	r.Scan() // inputs
	r.Scan() // outputs
	fmt.Fprintln(conn, "batch 0")
	if !r.Scan() || !strings.HasPrefix(r.Text(), "error:") {
		t.Fatalf("bad batch size not rejected: %q", r.Text())
	}
	// The frame length could not be trusted, so the server must have dropped
	// the connection rather than try to resynchronize.
	if r.Scan() {
		t.Fatalf("connection still open after untrusted batch size: %q", r.Text())
	}
}

func TestMalformedBatchLineKeepsConnectionUsable(t *testing.T) {
	addr := startServer(t, oracle.FromCircuit(golden()))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewScanner(conn)
	r.Scan() // inputs
	r.Scan() // outputs
	fmt.Fprintln(conn, "batch 2")
	fmt.Fprintln(conn, "1x0") // bad bit
	fmt.Fprintln(conn, "110")
	if !r.Scan() || !strings.HasPrefix(r.Text(), "error:") {
		t.Fatalf("malformed batch line not rejected: %q", r.Text())
	}
	fmt.Fprintln(conn, "110") // plain v1 query on the same connection
	if !r.Scan() || strings.HasPrefix(r.Text(), "error:") {
		t.Fatalf("connection unusable after rejected batch: %q", r.Text())
	}
}

// TestManyConcurrentClients hammers one server from parallel sessions, each
// mixing v2 batches and scalar queries. The circuit oracle forks, so the
// connections run lock-free; the race detector checks that claim.
func TestManyConcurrentClients(t *testing.T) {
	g := golden()
	direct := oracle.FromCircuit(g)
	addr := startServer(t, direct)
	const clients = 8
	const rounds = 20
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(seed int64) {
			errc <- func() error {
				cl, err := DialV2(addr)
				if err != nil {
					return err
				}
				defer cl.Close()
				if cl.Proto() != 2 {
					return fmt.Errorf("client %d stuck on v1", seed)
				}
				for r := 0; r < rounds; r++ {
					n := 64 + int(seed)*7 + r
					lanes := wireLanes(seed*1000+int64(r), cl.NumInputs(), n)
					want := direct.EvalBatch(lanes, n)
					if !lanesEqual(cl.EvalBatch(lanes, n), want, cl.NumOutputs(), n) {
						return fmt.Errorf("client %d round %d diverged", seed, r)
					}
				}
				return nil
			}()
		}(int64(c))
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentClientsSerializedOracle covers the non-Forker path: a
// stateful oracle shared by all connections must be protected by the server
// lock, which the race detector verifies.
func TestConcurrentClientsSerializedOracle(t *testing.T) {
	counted := oracle.NewCounter(oracle.ScalarOnly(oracle.FromCircuit(golden())))
	addr := startServer(t, counted)
	const clients = 4
	const queries = 50
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(seed int64) {
			errc <- func() error {
				cl, err := Dial(addr)
				if err != nil {
					return err
				}
				defer cl.Close()
				rng := rand.New(rand.NewSource(seed))
				for q := 0; q < queries; q++ {
					a := []bool{rng.Intn(2) == 1, rng.Intn(2) == 1, rng.Intn(2) == 1}
					oracle.Eval(cl, a)
				}
				return nil
			}()
		}(int64(c))
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := counted.Queries(); got != clients*queries {
		t.Fatalf("shared oracle saw %d queries, want %d", got, clients*queries)
	}
}

// TestConnectionChurnStress mixes long-lived querying clients with clients
// that connect, fire one query, and hang up, against a shared memo-wrapped
// oracle on the serialized (non-Forker) path. Under -race this covers the
// per-connection goroutine lifecycle against the server lock and the memo's
// shard locks; functionally every answer must match the direct oracle.
func TestConnectionChurnStress(t *testing.T) {
	g := golden()
	direct := oracle.FromCircuit(g)
	memo := oracle.NewMemoCap(oracle.ScalarOnly(direct), 16)
	addr := startServer(t, memo)

	const steady = 3
	const churners = 3
	const rounds = 30
	errc := make(chan error, steady+churners)
	for c := 0; c < steady; c++ {
		go func(seed int64) {
			errc <- func() error {
				cl, err := DialV2(addr)
				if err != nil {
					return err
				}
				defer cl.Close()
				rng := rand.New(rand.NewSource(seed))
				for r := 0; r < rounds; r++ {
					a := []bool{rng.Intn(2) == 1, rng.Intn(2) == 1, rng.Intn(2) == 1}
					got, want := oracle.Eval(cl, a), direct.Eval(a)
					for i := range want {
						if got[i] != want[i] {
							return fmt.Errorf("steady %d: Eval(%v) = %v, want %v", seed, a, got, want)
						}
					}
				}
				return nil
			}()
		}(int64(c))
	}
	for c := 0; c < churners; c++ {
		go func(seed int64) {
			errc <- func() error {
				rng := rand.New(rand.NewSource(100 + seed))
				for r := 0; r < rounds; r++ {
					cl, err := Dial(addr)
					if err != nil {
						return err
					}
					a := []bool{rng.Intn(2) == 1, rng.Intn(2) == 1, rng.Intn(2) == 1}
					got, want := oracle.Eval(cl, a), direct.Eval(a)
					cl.Close()
					for i := range want {
						if got[i] != want[i] {
							return fmt.Errorf("churner %d: Eval(%v) = %v, want %v", seed, a, got, want)
						}
					}
				}
				return nil
			}()
		}(int64(c))
	}
	for c := 0; c < steady+churners; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
