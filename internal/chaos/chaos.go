// Package chaos provides deterministic, seeded fault injection for the
// oracle transport — the transport-layer sibling of internal/mutation's
// "an injected defect must be caught" philosophy. Wrap a black box in
// chaos.Oracle (transient errors, latency, permanent death, flipped output
// bits) or a listener in chaos.Listen (dropped, hung, truncated, corrupted
// connections) and the fault-tolerance layer must either absorb the fault
// (retry/reconnect, byte-identical result) or surface it (degraded result,
// failed accuracy check) — never panic, never silently mask a wrong answer.
//
// Every fault schedule is a pure function of the configured seed and the
// call sequence, so a drill that fails replays exactly.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"logicregression/internal/bitvec"
	"logicregression/internal/oracle"
)

// ErrDead is the permanent-failure error a chaos oracle returns once its
// FailAfter budget is spent. It is deliberately not transient: retry layers
// must give up and degrade.
var ErrDead = errors.New("chaos: black box permanently dead")

// Config drives oracle-level fault injection. The zero value injects
// nothing.
type Config struct {
	// Seed drives the fault schedule. Runs with equal seeds and equal call
	// sequences inject identical faults.
	Seed int64
	// ErrRate is the probability, per query call (one batch, which on the
	// wire is one frame or one line), of an injected transient error.
	ErrRate float64
	// FailAfter kills the black box permanently after this many successful
	// query calls (0 = never): every later call returns ErrDead.
	FailAfter int64
	// FlipRate is the probability, per output bit, of silently flipping
	// the answer — the fault class no transport layer can absorb; only a
	// final accuracy check catches it.
	FlipRate float64
	// Latency is added to every query call.
	Latency time.Duration
}

// Oracle wraps a black box with injected faults. It implements
// oracle.Fallible (errors as values) and oracle.Oracle (errors as
// *oracle.Failure panics), so it can stand in for the real black box on
// either side of the wire.
//
// It deliberately does not implement oracle.Forker: all connections of an
// ioserve.Server share one fault schedule, keeping FailAfter counts global
// across reconnects.
type Oracle struct {
	inner oracle.Fallible

	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	calls int64
}

// Wrap builds a fault-injecting view of o.
func Wrap(o oracle.Oracle, cfg Config) *Oracle {
	return &Oracle{
		inner: oracle.AsFallible(o),
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Calls returns the number of query calls that reached the schedule.
func (o *Oracle) Calls() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.calls
}

func (o *Oracle) NumInputs() int        { return o.inner.NumInputs() }
func (o *Oracle) NumOutputs() int       { return o.inner.NumOutputs() }
func (o *Oracle) InputNames() []string  { return o.inner.InputNames() }
func (o *Oracle) OutputNames() []string { return o.inner.OutputNames() }

// roll advances the fault schedule by one query call and returns the
// injected error, if any, plus a flip mask decision function.
func (o *Oracle) roll() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cfg.FailAfter > 0 && o.calls >= o.cfg.FailAfter {
		return ErrDead
	}
	o.calls++
	if o.cfg.ErrRate > 0 && o.rng.Float64() < o.cfg.ErrRate {
		return oracle.Transient(fmt.Errorf("chaos: injected transient fault (call %d)", o.calls))
	}
	return nil
}

// flipBit decides one output-bit flip.
func (o *Oracle) flipBit() bool {
	if o.cfg.FlipRate <= 0 {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rng.Float64() < o.cfg.FlipRate
}

// TryEvalBatch queries a whole frame through the fault schedule: one error
// roll per frame (matching one wire exchange), one flip roll per output bit.
func (o *Oracle) TryEvalBatch(patterns []bitvec.Word, n int) ([]bitvec.Word, error) {
	if o.cfg.Latency > 0 {
		time.Sleep(o.cfg.Latency)
	}
	if err := o.roll(); err != nil {
		return nil, err
	}
	out, err := o.inner.TryEvalBatch(patterns, n)
	if err != nil {
		return nil, err
	}
	if o.cfg.FlipRate > 0 {
		w := oracle.Words(n)
		for j := 0; j < o.inner.NumOutputs(); j++ {
			for k := 0; k < n; k++ {
				if o.flipBit() {
					out[j*w+k/64] ^= 1 << uint(k%64)
				}
			}
		}
	}
	return out, nil
}

// EvalBatch is the panicking form (oracle.Oracle).
func (o *Oracle) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	out, err := o.TryEvalBatch(patterns, n)
	if err != nil {
		panic(oracle.NewFailure(err))
	}
	return out
}

var (
	_ oracle.Oracle   = (*Oracle)(nil)
	_ oracle.Fallible = (*Oracle)(nil)
)
