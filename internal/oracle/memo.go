package oracle

// Memo: a sharded, bounded, memoizing oracle wrapper. The contest allows
// repeated queries, but caching keeps the learner's query count honest when
// the tree resamples overlapping regions. A batched query probes the cache
// per pattern, gathers the misses, and forwards them to the inner oracle as
// one (smaller) batch.
//
// The cache is a bounded LRU, sharded by key hash so concurrent learners
// (Options.Parallel, multi-connection ioserve) do not serialize on one lock.
// Small capacities collapse to a single shard so eviction order stays exact.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"logicregression/internal/bitvec"
)

// DefaultMemoCapacity bounds NewMemo's cache. At ~100 bytes per cached
// response this tops out near tens of MB, far below the unbounded growth the
// old cache exhibited on long refinement runs.
const DefaultMemoCapacity = 1 << 18

// memoShardCount is the shard fan-out for large caches; must be a power of 2.
const memoShardCount = 16

// MemoHook observes cache mutations — the attachment point for the
// write-through persistence layer (internal/store). Both callbacks run
// outside the shard locks, on the goroutine that caused the mutation, and
// must not call back into the memo. A hook must never panic on an
// oracle-reachable path with anything but *Failure; persistence hooks
// swallow their I/O errors instead (a failing disk must not fail a learn).
//
// MemoInsert fires when a fresh black-box response enters the cache (not on
// Preload, and not when a concurrent racer already inserted the key).
// MemoEvict fires when the LRU bound pushes an entry out — the last chance
// to persist a hot-but-bounded entry whose insert predates the hook (e.g. a
// store attached to an already-warm memo), which is why eviction is a
// separate callback rather than folded into insert.
type MemoHook interface {
	MemoInsert(key string, out []bool)
	MemoEvict(key string, out []bool)
}

// MemoKey returns the canonical cache key for an assignment (its bits
// packed little-endian into a byte string). Exported so persistence layers
// and transcript importers address the cache exactly the way the memo
// itself does.
func MemoKey(a []bool) string { return assignKey(a) }

// Memo wraps an oracle with a bounded LRU response cache keyed on the full
// assignment. It is safe for concurrent use as long as the inner oracle is
// (misses are evaluated outside the shard locks).
type Memo struct {
	inner    Oracle
	shards   []memoShard
	capacity int // per shard

	// hook is the attached mutation observer (nil when none). Stored as an
	// atomic pointer so SetHook synchronizes with concurrent queries.
	hook atomic.Pointer[MemoHook]

	// Stats are memo-level atomics rather than per-shard fields so the
	// serving metrics surface can read hit rates without touching a single
	// shard lock (a snapshot may be taken thousands of times per second
	// while every shard is under load).
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type memoShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type memoEntry struct {
	key string
	out []bool
}

// NewMemo wraps o with a memoization cache of DefaultMemoCapacity entries.
func NewMemo(o Oracle) *Memo { return NewMemoCap(o, DefaultMemoCapacity) }

// NewMemoCap wraps o with a memoization cache bounded to capacity entries
// (least-recently-used eviction). capacity < 1 panics.
func NewMemoCap(o Oracle, capacity int) *Memo {
	if capacity < 1 {
		panic("oracle: memo capacity must be positive")
	}
	nShards := memoShardCount
	if capacity < 8*memoShardCount {
		// A tiny cache sharded 16 ways would evict almost arbitrarily;
		// keep eviction order exact instead.
		nShards = 1
	}
	m := &Memo{
		inner:    o,
		shards:   make([]memoShard, nShards),
		capacity: (capacity + nShards - 1) / nShards,
	}
	for i := range m.shards {
		m.shards[i].entries = make(map[string]*list.Element)
		m.shards[i].order = list.New()
	}
	return m
}

// SetHook attaches a mutation observer (nil detaches). Attach before the
// memo serves queries to observe every insert; attaching mid-life is safe
// but entries inserted earlier are only observed if they later evict.
func (o *Memo) SetHook(h MemoHook) {
	if h == nil {
		o.hook.Store(nil)
		return
	}
	o.hook.Store(&h)
}

// currentHook loads the attached hook, nil when none.
func (o *Memo) currentHook() MemoHook {
	if p := o.hook.Load(); p != nil {
		return *p
	}
	return nil
}

func (o *Memo) NumInputs() int        { return o.inner.NumInputs() }
func (o *Memo) NumOutputs() int       { return o.inner.NumOutputs() }
func (o *Memo) InputNames() []string  { return o.inner.InputNames() }
func (o *Memo) OutputNames() []string { return o.inner.OutputNames() }

// shard picks the shard for a key by FNV-1a hash.
//
//logicreg:hotpath
func (o *Memo) shard(key string) *memoShard {
	if len(o.shards) == 1 {
		return &o.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &o.shards[h&uint32(len(o.shards)-1)]
}

// get returns the cached response and bumps recency, accounting the probe
// on the memo's atomic counters.
func (o *Memo) get(s *memoShard, key string) ([]bool, bool) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		out := el.Value.(*memoEntry).out
		s.mu.Unlock()
		o.hits.Add(1)
		return out, true
	}
	s.mu.Unlock()
	o.misses.Add(1)
	return nil, false
}

// put inserts a response, evicting the least recently used entry beyond the
// shard capacity. Concurrent racers inserting the same key are harmless: the
// values are identical by determinism of the oracle. Hook callbacks fire
// after the shard lock is released, in mutation order (insert before the
// evictions it caused).
func (o *Memo) put(s *memoShard, key string, out []bool) {
	inserted, evicted := o.insert(s, key, out)
	if evicted != nil {
		o.evictions.Add(int64(len(evicted)))
	}
	h := o.currentHook()
	if h == nil {
		return
	}
	if inserted {
		h.MemoInsert(key, out)
	}
	for _, e := range evicted {
		h.MemoEvict(e.key, e.out)
	}
}

// insert is the locked core of put: it reports whether the key was freshly
// inserted and returns the entries the LRU bound pushed out.
func (o *Memo) insert(s *memoShard, key string, out []bool) (inserted bool, evicted []*memoEntry) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return false, nil
	}
	s.entries[key] = s.order.PushFront(&memoEntry{key: key, out: out})
	for s.order.Len() > o.capacity {
		last := s.order.Back()
		s.order.Remove(last)
		e := last.Value.(*memoEntry)
		delete(s.entries, e.key)
		evicted = append(evicted, e)
	}
	s.mu.Unlock()
	return true, evicted
}

// Preload inserts a response without touching the hit/miss counters and
// without firing the hook — the warm-start path, used to replay a persisted
// memo log (or another memo's contents) into a fresh cache. Entries the
// preload itself evicts are dropped silently: they came from the log, so
// re-persisting them would only echo. Preloading never changes learn
// results, only which queries reach the inner oracle — the cached values
// are the oracle's own answers, so a warm learn is byte-identical to a cold
// one at the same seed.
func (o *Memo) Preload(key string, out []bool) {
	o.insert(o.shard(key), key, append([]bool(nil), out...))
}

// EvalBatch probes the cache per pattern, deduplicates the misses, forwards
// them to the inner oracle as one batch, and fills the cache with the fresh
// responses.
func (o *Memo) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	nIn, nOut := o.inner.NumInputs(), o.inner.NumOutputs()
	w := Words(n)
	checkBatch(len(patterns), nIn, n)
	out := make([]bitvec.Word, nOut*w)

	assign := make([]bool, nIn)
	keys := make([]string, n)
	missOf := make(map[string]int) // key -> index into missAssign
	ref := make([]int, n)          // per pattern: miss index, or -1 on hit
	var missAssign [][]bool
	for k := 0; k < n; k++ {
		patternBools(patterns, w, nIn, k, assign)
		key := assignKey(assign)
		keys[k] = key
		if m, dup := missOf[key]; dup {
			ref[k] = m
			continue
		}
		if v, ok := o.get(o.shard(key), key); ok {
			ref[k] = -1
			scatterBools(out, w, k, v)
			continue
		}
		missOf[key] = len(missAssign)
		ref[k] = len(missAssign)
		missAssign = append(missAssign, append([]bool(nil), assign...))
	}
	if len(missAssign) == 0 {
		return out
	}

	missLanes := packPatterns(missAssign, nIn)
	missOut := o.inner.EvalBatch(missLanes, len(missAssign))
	mw := Words(len(missAssign))
	missVals := make([][]bool, len(missAssign))
	for m := range missAssign {
		v := make([]bool, nOut)
		patternBools(missOut, mw, nOut, m, v)
		missVals[m] = v
		key := assignKey(missAssign[m])
		o.put(o.shard(key), key, v)
	}
	for k := 0; k < n; k++ {
		if ref[k] >= 0 {
			scatterBools(out, w, k, missVals[ref[k]])
		}
	}
	return out
}

// scatterBools writes one response into bit k of each output lane.
//
//logicreg:hotpath
func scatterBools(out []bitvec.Word, w, k int, v []bool) {
	for j, bit := range v {
		if bit {
			setLaneBit(out, w, j, k)
		}
	}
}

// Hits returns the number of cache hits so far.
func (o *Memo) Hits() int64 { return o.hits.Load() }

// Misses returns the number of cache misses so far.
func (o *Memo) Misses() int64 { return o.misses.Load() }

// Evictions returns the number of entries evicted so far.
func (o *Memo) Evictions() int64 { return o.evictions.Load() }

// Len returns the number of cached responses.
func (o *Memo) Len() int {
	total := int64(0)
	for i := range o.shards {
		s := &o.shards[i]
		s.mu.Lock()
		total += int64(s.order.Len())
		s.mu.Unlock()
	}
	return int(total)
}

// MemoStats is a point-in-time snapshot of a memo's cache behaviour.
type MemoStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// HitRate returns hits/(hits+misses), or 0 before the first probe.
func (s MemoStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Add returns the entrywise sum of two snapshots, for aggregating stats
// across the per-session and per-job memos of a serving fleet.
func (s MemoStats) Add(t MemoStats) MemoStats {
	return MemoStats{
		Hits:      s.Hits + t.Hits,
		Misses:    s.Misses + t.Misses,
		Evictions: s.Evictions + t.Evictions,
		Entries:   s.Entries + t.Entries,
	}
}

// Stats snapshots the counters. The counters are read atomically but not as
// one unit: a snapshot taken under load may be off by in-flight probes,
// which is fine for monitoring.
func (o *Memo) Stats() MemoStats {
	return MemoStats{
		Hits:      o.hits.Load(),
		Misses:    o.misses.Load(),
		Evictions: o.evictions.Load(),
		Entries:   o.Len(),
	}
}
