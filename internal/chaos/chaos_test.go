package chaos

import (
	"errors"
	"net"
	"testing"

	"logicregression/internal/bitvec"
	"logicregression/internal/circuit"
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

func golden() oracle.Oracle {
	c := circuit.New()
	a := c.AddPI("a")
	b := c.AddPI("b")
	c.AddPO("z", c.Xor(a, b))
	c.AddPO("w", c.And(a, b))
	return oracle.FromCircuit(c)
}

// schedule records which of n identical calls fault and what the answers
// were, as a replayable fingerprint of the fault schedule.
func schedule(o *Oracle, n int) (faults []bool, answers [][]bool) {
	for i := 0; i < n; i++ {
		out, err := tryEval(o, []bool{i&1 == 1, i>>1&1 == 1})
		faults = append(faults, err != nil)
		answers = append(answers, out)
	}
	return
}

// TestScheduleIsDeterministic replays the same seed and call sequence twice:
// identical faults, identical (possibly flipped) answers. A drill that fails
// must replay exactly.
func TestScheduleIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, ErrRate: 0.2, FlipRate: 0.1}
	f1, a1 := schedule(Wrap(golden(), cfg), 200)
	f2, a2 := schedule(Wrap(golden(), cfg), 200)
	sawFault := false
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("call %d: fault schedules diverge at equal seeds", i)
		}
		sawFault = sawFault || f1[i]
		for j := range a1[i] {
			if a1[i][j] != a2[i][j] {
				t.Fatalf("call %d output %d: flip schedules diverge at equal seeds", i, j)
			}
		}
	}
	if !sawFault {
		t.Fatal("20%% error rate injected nothing in 200 calls")
	}
}

// TestInjectedErrorsAreTransient pins the error taxonomy: rate-injected
// faults carry the transient mark (retry layers absorb them), ErrDead does
// not (retry layers must degrade).
func TestInjectedErrorsAreTransient(t *testing.T) {
	o := Wrap(golden(), Config{Seed: 1, ErrRate: 1})
	_, err := tryEval(o, []bool{false, false})
	if err == nil || !oracle.IsTransient(err) {
		t.Fatalf("injected fault not transient: %v", err)
	}
	if oracle.IsTransient(ErrDead) {
		t.Fatal("ErrDead is marked transient; retry layers would spin on a dead box")
	}
}

// TestFailAfterIsPermanent kills the box after 5 calls and checks it stays
// dead: every later call returns ErrDead and the call counter freezes.
func TestFailAfterIsPermanent(t *testing.T) {
	o := Wrap(golden(), Config{Seed: 1, FailAfter: 5})
	for i := 0; i < 5; i++ {
		if _, err := tryEval(o, []bool{true, false}); err != nil {
			t.Fatalf("call %d before death: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := tryEval(o, []bool{true, false}); !errors.Is(err, ErrDead) {
			t.Fatalf("call after death: err = %v, want ErrDead", err)
		}
	}
	if got := o.Calls(); got != 5 {
		t.Fatalf("Calls() = %d after death, want 5", got)
	}
}

// TestFlipRateChangesAnswers checks the silent-wrong-answer class actually
// produces wrong answers (a drill with an ineffective fault tests nothing).
func TestFlipRateChangesAnswers(t *testing.T) {
	clean := golden()
	o := Wrap(golden(), Config{Seed: 7, FlipRate: 0.3})
	flipped := false
	for i := 0; i < 50 && !flipped; i++ {
		a := []bool{i&1 == 1, i>>1&1 == 1}
		want := oracle.Eval(clean, a)
		got, err := tryEval(o, a)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			flipped = flipped || got[j] != want[j]
		}
	}
	if !flipped {
		t.Fatal("30%% flip rate never changed an answer in 50 calls")
	}
}

// TestEvalPanicsWithFailure pins the bridge into the panicking oracle world:
// the payload must be *oracle.Failure so core.Learn can degrade on it.
func TestEvalPanicsWithFailure(t *testing.T) {
	o := Wrap(golden(), Config{Seed: 1, FailAfter: 0, ErrRate: 1})
	defer func() {
		rec := recover()
		if _, ok := rec.(*oracle.Failure); !ok {
			t.Fatalf("EvalBatch panicked with %T, want *oracle.Failure", rec)
		}
	}()
	oracle.Eval(o, []bool{false, false})
	t.Fatal("EvalBatch succeeded under a certain fault")
}

// TestListenZeroConfigIsUnwrapped: a zero config must be exactly the
// fault-free transport, not a pass-through wrapper.
func TestListenZeroConfigIsUnwrapped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if got := Listen(ln, ConnConfig{}); got != ln {
		t.Fatal("zero ConnConfig wrapped the listener")
	}
	if got := Listen(ln, ConnConfig{DropAfter: 1}); got == ln {
		t.Fatal("non-zero ConnConfig did not wrap the listener")
	}
}

// pipeFault builds a faultConn over one end of an in-memory pipe and a
// reader goroutine draining the other end.
func pipeFault(t *testing.T, cfg ConnConfig) (*faultConn, <-chan []byte) {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	got := make(chan []byte, 16)
	go func() {
		defer close(got)
		for {
			buf := make([]byte, 64)
			n, err := c2.Read(buf)
			if n > 0 {
				got <- buf[:n]
			}
			if err != nil {
				return
			}
		}
	}()
	return &faultConn{Conn: c1, cfg: cfg, hung: make(chan struct{})}, got
}

// TestDropAfterSeversConnection: the first write passes, the second kills
// the connection and reports it closed.
func TestDropAfterSeversConnection(t *testing.T) {
	fc, got := pipeFault(t, ConnConfig{DropAfter: 1})
	if _, err := fc.Write([]byte("ok\n")); err != nil {
		t.Fatalf("write before the drop: %v", err)
	}
	if b := <-got; string(b) != "ok\n" {
		t.Fatalf("peer read %q before the drop", b)
	}
	if _, err := fc.Write([]byte("lost\n")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after the drop: err = %v, want net.ErrClosed", err)
	}
	if b, open := <-got; open {
		t.Fatalf("peer read %q after the drop, want EOF", b)
	}
}

// TestCorruptAfterManglesBytes: the schedule corrupts the first byte of
// every write past the threshold without dropping the connection.
func TestCorruptAfterManglesBytes(t *testing.T) {
	fc, got := pipeFault(t, ConnConfig{CorruptAfter: 1})
	if _, err := fc.Write([]byte("good\n")); err != nil {
		t.Fatal(err)
	}
	if b := <-got; string(b) != "good\n" {
		t.Fatalf("first write corrupted early: %q", b)
	}
	if _, err := fc.Write([]byte("1010\n")); err != nil {
		t.Fatalf("corrupting write must keep the connection open: %v", err)
	}
	if b := <-got; string(b) != "X010\n" {
		t.Fatalf("second write = %q, want %q", b, "X010\n")
	}
}
