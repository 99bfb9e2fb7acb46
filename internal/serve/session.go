package serve

import (
	"sync"
	"time"

	"logicregression/internal/bitvec"
	"logicregression/internal/oracle"
)

// Session is one tenant's live handle on the black box: a private oracle
// fork behind a private memo, instrumented so every query lands in the
// service metrics. Sessions outlive connections — a client that drops and
// redials can re-attach by ID and keep its warm cache.
type Session struct {
	ID     string
	Tenant string

	svc    *Service
	memo   *oracle.Memo
	oracle oracle.Oracle // the instrumented chain handed to connections

	mu         sync.Mutex
	lastActive time.Time
	attached   int // connections currently bound to this session
	closed     bool
}

func newSession(svc *Service, id, tenant string) *Session {
	s := &Session{
		ID:         id,
		Tenant:     tenant,
		svc:        svc,
		lastActive: time.Now(),
	}
	s.memo = oracle.NewMemoCap(svc.fork(), svc.cfg.SessionMemo)
	svc.attachStore(s.memo)
	s.oracle = &sessionOracle{sess: s, inner: s.memo}
	return s
}

// Oracle returns the session's instrumented oracle: queries through it hit
// the session memo, count toward service metrics, and refresh the idle
// clock. Safe for concurrent use even when the underlying fork is not —
// the wrapper serializes evaluation per session.
func (s *Session) Oracle() oracle.Oracle { return s.oracle }

// MemoStats reports the session cache's hit/miss/eviction behaviour.
func (s *Session) MemoStats() oracle.MemoStats { return s.memo.Stats() }

// touch refreshes the idle clock.
func (s *Session) touch() {
	s.mu.Lock()
	s.lastActive = time.Now()
	s.mu.Unlock()
}

// attach records a connection binding to this session; detach undoes it.
func (s *Session) attach() {
	s.mu.Lock()
	s.attached++
	s.lastActive = time.Now()
	s.mu.Unlock()
}

func (s *Session) detach() {
	s.mu.Lock()
	if s.attached > 0 {
		s.attached--
	}
	s.lastActive = time.Now()
	s.mu.Unlock()
}

// Attached returns the number of connections currently bound.
func (s *Session) Attached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attached
}

// idleSince reports whether the session is unattached and untouched since
// before the cutoff.
func (s *Session) idleSince(cutoff time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attached == 0 && s.lastActive.Before(cutoff)
}

func (s *Session) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// sessionOracle instruments a session's oracle chain: latency histograms,
// query counters, the qps meter, and the idle clock. It also serializes
// evaluation — two connections attached to the same session may query
// concurrently, and the fork underneath (unlike the memo) makes no
// concurrency promise of its own.
type sessionOracle struct {
	sess   *Session
	evalMu sync.Mutex
	inner  *oracle.Memo
}

func (o *sessionOracle) NumInputs() int        { return o.inner.NumInputs() }
func (o *sessionOracle) NumOutputs() int       { return o.inner.NumOutputs() }
func (o *sessionOracle) InputNames() []string  { return o.inner.InputNames() }
func (o *sessionOracle) OutputNames() []string { return o.inner.OutputNames() }

func (o *sessionOracle) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	svc := o.sess.svc
	start := time.Now()
	o.evalMu.Lock()
	out := o.inner.EvalBatch(patterns, n)
	o.evalMu.Unlock()
	svc.hQuery.Observe(time.Since(start))
	svc.mQueries.Add(int64(n))
	svc.mFrames.Inc()
	svc.mQPS.Add(int64(n))
	o.sess.touch()
	return out
}
