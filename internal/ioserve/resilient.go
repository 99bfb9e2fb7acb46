package ioserve

// ResilientClient — the fault-tolerant face of the remote oracle.
//
// The bare Client treats the first transport error as terminal: correct for
// byte-exact contest emulation, useless against a real network. The
// resilient wrapper classifies failures and reacts:
//
//	retry in place   "error: transient:" replies — the stream is intact,
//	                 the same query is simply sent again
//	reconnect        timeouts, resets, dropped connections, desynchronized
//	                 or corrupted replies — the session is redialed with
//	                 capped exponential backoff + deterministic jitter, the
//	                 greeting and proto negotiation re-run, and the
//	                 in-flight query re-issued on the fresh session
//	give up          "error: fatal:" replies, rejected well-formed queries,
//	                 a changed port-name greeting (ErrServerChanged), or an
//	                 exhausted attempt budget — surfaced as a permanent
//	                 error (a *oracle.Failure panic from EvalBatch), which
//	                 core.Learn turns into a degraded result
//
// Resume correctness rides on two invariants. First, queries are stateless:
// the black box is a pure function of the assignment, so re-issuing an
// in-flight query after reconnect cannot change any answer. Second, the
// learner's memo (oracle.Memo, stacked above this client) replays every
// previously answered pattern from cache, so a reconnect never re-pays —
// or worse, re-orders — the query history: a fixed-seed learn that survives
// connection drops is byte-identical to a fault-free run.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"logicregression/internal/bitvec"
	"logicregression/internal/oracle"
)

// RetryConfig bounds the retry/reconnect loop. The zero value is usable:
// every field falls back to the listed default.
type RetryConfig struct {
	// MaxAttempts is the attempt budget per operation, counting the first
	// try and every retry or redial (default 8). An attempt that makes
	// forward progress (banks part of a batch before the fault) refills
	// the budget, so it effectively bounds consecutive fruitless attempts.
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per attempt
	// (default 50ms).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
	// Seed drives the jitter generator, keeping fault drills reproducible.
	Seed int64
}

func (r RetryConfig) withDefaults() RetryConfig {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 8
	}
	if r.Backoff <= 0 {
		r.Backoff = 50 * time.Millisecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 2 * time.Second
	}
	return r
}

// resilientDefaults fills in the deadlines resilience depends on: without an
// I/O timeout a hung server blocks forever and the retry loop never gets a
// chance to act.
func resilientDefaults(cfg DialConfig) DialConfig {
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 10 * time.Second
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 30 * time.Second
	}
	return cfg
}

// ResilientClient is an oracle.Oracle and oracle.Fallible backed by a
// remote ioserve server that it redials as needed. Operations
// serialize on an internal lock; Close may be called concurrently with an
// in-flight operation and unblocks it.
type ResilientClient struct {
	addr  string
	dial  DialConfig
	retry RetryConfig

	// opMu serializes whole operations (one retry loop at a time): the
	// underlying Client session is single-stream. Lock order: opMu before
	// mu. Close deliberately skips opMu when an operation is in flight and
	// severs the connection instead, which unblocks the operation.
	opMu sync.Mutex

	mu        sync.Mutex // guards the fields below
	c         *Client    // current session, nil when disconnected
	closed    bool
	redials   int64
	retries   int64
	ins, outs []string // pinned from the first greeting
	wantV2    bool
	v1Chunk   int        // shrunk v1 pipeline depth (0 = default)
	rng       *rand.Rand // jitter
}

// DialResilient connects to addr and pins the server's identity (its
// port-name greeting). Later reconnects must present the identical greeting
// or fail with ErrServerChanged. The initial dial itself retries transient
// failures within the configured budget.
func DialResilient(addr string, dial DialConfig, retry RetryConfig) (*ResilientClient, error) {
	retry = retry.withDefaults()
	r := &ResilientClient{
		addr:   addr,
		dial:   resilientDefaults(dial),
		retry:  retry,
		wantV2: true,
		rng:    rand.New(rand.NewSource(retry.Seed)),
	}
	if err := r.doResume(func(*Client) (bool, error) { return false, nil }); err != nil {
		return nil, err
	}
	return r, nil
}

// ForceV1 downgrades the session to the v1 line protocol (for drills and
// byte-exact emulation). It takes effect on the next (re)connect; call it
// before issuing queries.
func (r *ResilientClient) ForceV1() {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wantV2 = false
	if r.c != nil {
		r.c.Close()
		r.c = nil
	}
}

// Proto returns the protocol of the live session (0 when disconnected).
func (r *ResilientClient) Proto() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c == nil {
		return 0
	}
	return r.c.proto
}

// Redials returns how many times the transport has been re-established.
func (r *ResilientClient) Redials() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.redials
}

// Retries returns how many individual attempts beyond the first were needed
// across all operations (in-place retries and redials combined).
func (r *ResilientClient) Retries() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// Close tears the transport down. Safe to call concurrently with an
// in-flight operation (which will fail with ErrClientClosed) and
// idempotent. When the client is idle the session is closed politely
// (flushing "quit"); when an operation is in flight the connection is
// severed instead, which unblocks the operation.
func (r *ResilientClient) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	c := r.c
	r.c = nil
	r.mu.Unlock()
	if c == nil {
		return nil
	}
	if r.opMu.TryLock() {
		defer r.opMu.Unlock()
		return c.Close()
	}
	return c.conn.Close()
}

// session returns the live session, dialing a fresh one if necessary. A
// fresh session's greeting is verified against the pinned identity and its
// protocol renegotiated before any query touches it.
func (r *ResilientClient) session() (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClientClosed
	}
	if r.c != nil {
		return r.c, nil
	}
	c, err := DialWith(r.addr, r.dial)
	if err != nil {
		return nil, err
	}
	if r.ins != nil {
		pinned := oracle.Identity{Ins: r.ins, Outs: r.outs}
		fresh := oracle.Identity{Ins: c.ins, Outs: c.outs}
		if !fresh.Equal(pinned) {
			c.conn.Close()
			return nil, fmt.Errorf("%w: got %v (%v -> %v), want %v (%v -> %v)",
				ErrServerChanged, fresh, c.ins, c.outs, pinned, r.ins, r.outs)
		}
		r.redials++
	} else {
		// First connection: pin the identity.
		r.ins = append([]string(nil), c.ins...)
		r.outs = append([]string(nil), c.outs...)
	}
	if r.wantV2 {
		if _, err := c.tryUpgradeErr(); err != nil {
			c.conn.Close()
			return nil, err
		}
	}
	c.v1Chunk = r.v1Chunk
	r.c = c
	return c, nil
}

// dropSession discards the current session after a transport failure. When
// the failed session spoke v1, the pipeline depth is halved for the next
// one: a transport that reliably dies every N replies (a drop-after drill,
// an aggressive middlebox) would otherwise never fit a full default chunk
// inside a session's lifetime, and the retry budget would drain with zero
// progress. Shrinking converges on a depth that survives; chunk size only
// regroups the wire exchanges, so answers and their order are unchanged.
func (r *ResilientClient) dropSession() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c != nil {
		if r.c.proto < 2 {
			if r.v1Chunk == 0 {
				r.v1Chunk = v1PipelineChunk
			}
			if r.v1Chunk > 1 {
				r.v1Chunk /= 2
			}
		}
		r.c.conn.Close()
		r.c = nil
	}
}

// noteRetry counts one extra attempt.
func (r *ResilientClient) noteRetry() {
	r.mu.Lock()
	r.retries++
	r.mu.Unlock()
}

// isClosed reports whether Close has been called.
func (r *ResilientClient) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// backoffSleep sleeps the capped exponential backoff for the given attempt
// (1-based) plus up to 50% deterministic jitter.
func (r *ResilientClient) backoffSleep(attempt int) {
	d := r.retry.Backoff << uint(attempt-1)
	if d > r.retry.MaxBackoff || d <= 0 {
		d = r.retry.MaxBackoff
	}
	r.mu.Lock()
	jitter := time.Duration(r.rng.Int63n(int64(d)/2 + 1))
	r.mu.Unlock()
	time.Sleep(d + jitter)
}

// doResume runs op against a live session, retrying per the failure
// classification until it succeeds, fails permanently, or exhausts the
// attempt budget. The returned error is never transient: whatever escapes
// here is final. op reports whether the attempt made forward progress
// (e.g. banked some replies of a batch), and a progressing attempt resets
// the budget. MaxAttempts therefore bounds consecutive zero-progress
// attempts, not total attempts — a long v1 batch that advances a little
// per session eventually completes instead of draining a fixed budget,
// while a server that answers nothing still fails after MaxAttempts. A
// retry right after progress skips the backoff: the peer is evidently
// serving, it just died mid-stream.
func (r *ResilientClient) doResume(op func(*Client) (progressed bool, err error)) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	var last error
	for attempt := 1; attempt <= r.retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			r.noteRetry()
			r.backoffSleep(attempt - 1)
		}
		if r.isClosed() {
			return ErrClientClosed
		}
		progressed := false
		c, err := r.session()
		if err == nil {
			progressed, err = op(c)
			if err == nil {
				return nil
			}
		}
		last = err
		switch {
		case isWireTransient(err):
			// Stream intact: retry the query on the same session.
		case oracle.IsTransient(err):
			r.dropSession()
		default:
			// Fatal: ErrServerChanged, ErrClientClosed, "error: fatal:",
			// rejected queries. No amount of retrying helps.
			return err
		}
		if progressed {
			attempt = 0
		}
	}
	// Deliberately %v, not %w: the cause carries a transient mark, but an
	// exhausted budget is permanent — re-wrapping would re-mark it.
	return fmt.Errorf("ioserve: giving up after %d attempts: %v", r.retry.MaxAttempts, last)
}

// Identity returns the server's pinned identity — the port names from the
// first greeting, the same names every reconnect must present verbatim
// (ErrServerChanged otherwise). It is the stable key for persistent state
// about this black box: a circuit learned against one session of a server
// is retrievable by any later session that pins the same identity.
func (r *ResilientClient) Identity() oracle.Identity {
	r.mu.Lock()
	defer r.mu.Unlock()
	return oracle.Identity{
		Ins:  append([]string(nil), r.ins...),
		Outs: append([]string(nil), r.outs...),
	}
}

// NumInputs returns the pinned input arity.
func (r *ResilientClient) NumInputs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ins)
}

// NumOutputs returns the pinned output arity.
func (r *ResilientClient) NumOutputs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.outs)
}

// InputNames returns the pinned PI names from the first greeting.
func (r *ResilientClient) InputNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.ins...)
}

// OutputNames returns the pinned PO names from the first greeting.
func (r *ResilientClient) OutputNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.outs...)
}

// TryEvalBatch issues a batch with retry/reconnect (oracle.Fallible).
// The batch is chunked to MaxFrame internally and each chunk resumes
// across faults: replies received before a drop are banked, and a fresh
// session re-issues only the unanswered tail. Progress resets the attempt
// budget (see doResume), so even a transport that dies every few replies
// converges as long as each session completes at least one exchange.
func (r *ResilientClient) TryEvalBatch(patterns []bitvec.Word, n int) ([]bitvec.Word, error) {
	nIn, nOut := r.NumInputs(), r.NumOutputs()
	w := oracle.Words(n)
	if want := nIn * w; len(patterns) != want {
		panic(fmt.Sprintf("ioserve: EvalBatch got %d lane words, want %d", len(patterns), want))
	}
	out := make([]bitvec.Word, nOut*w)
	for base := 0; base < n; base += MaxFrame {
		k := min(n-base, MaxFrame)
		sub := subBatch(patterns, w, nIn, base, k)
		res := make([]bitvec.Word, nOut*oracle.Words(k))
		done := 0
		err := r.doResume(func(c *Client) (bool, error) {
			m, err := c.evalBatchResume(sub, k, done, res)
			progressed := m > done
			done = m
			return progressed, err
		})
		if err != nil {
			return nil, err
		}
		// Scatter the chunk's result lanes back into the full layout.
		// base is a multiple of MaxFrame (and so of 64), so the chunk
		// aligns on word boundaries.
		kw := oracle.Words(k)
		for j := 0; j < nOut; j++ {
			copy(out[j*w+base/64:j*w+base/64+kw], res[j*kw:(j+1)*kw])
		}
	}
	return out, nil
}

// subBatch extracts the word-aligned chunk [base, base+k) of a lane-packed
// batch (base must be a multiple of 64).
func subBatch(patterns []bitvec.Word, w, nLanes, base, k int) []bitvec.Word {
	kw := oracle.Words(k)
	sub := make([]bitvec.Word, nLanes*kw)
	for i := 0; i < nLanes; i++ {
		copy(sub[i*kw:(i+1)*kw], patterns[i*w+base/64:i*w+base/64+kw])
	}
	return sub
}

// EvalBatch is TryEvalBatch panicking with *oracle.Failure once the retry
// budget is exhausted or the failure is fatal (oracle.Oracle).
func (r *ResilientClient) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	out, err := r.TryEvalBatch(patterns, n)
	if err != nil {
		panic(oracle.NewFailure(err))
	}
	return out
}

var (
	_ oracle.Oracle   = (*ResilientClient)(nil)
	_ oracle.Fallible = (*ResilientClient)(nil)
)
