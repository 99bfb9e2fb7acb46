package oracle

import (
	"sync"
	"testing"
)

// recordingHook captures hook callbacks for inspection.
type recordingHook struct {
	mu      sync.Mutex
	inserts []string
	evicts  []string
	vals    map[string][]bool
}

func newRecordingHook() *recordingHook {
	return &recordingHook{vals: make(map[string][]bool)}
}

func (h *recordingHook) MemoInsert(key string, out []bool) {
	h.mu.Lock()
	h.inserts = append(h.inserts, key)
	h.vals[key] = append([]bool(nil), out...)
	h.mu.Unlock()
}

func (h *recordingHook) MemoEvict(key string, out []bool) {
	h.mu.Lock()
	h.evicts = append(h.evicts, key)
	h.vals[key] = append([]bool(nil), out...)
	h.mu.Unlock()
}

func (h *recordingHook) counts() (ins, ev int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.inserts), len(h.evicts)
}

// identityish is a 3-input test oracle whose output mirrors input 0.
func hookTestOracle() *FuncOracle {
	return &FuncOracle{
		Ins:  []string{"a", "b", "c"},
		Outs: []string{"z"},
		F:    func(a []bool) []bool { return []bool{a[0]} },
	}
}

func TestMemoHookInsert(t *testing.T) {
	m := NewMemo(hookTestOracle())
	h := newRecordingHook()
	m.SetHook(h)

	a := []bool{true, false, true}
	Eval(m, a)
	Eval(m, a) // hit: no second insert
	ins, ev := h.counts()
	if ins != 1 || ev != 0 {
		t.Fatalf("counts = %d inserts / %d evicts, want 1/0", ins, ev)
	}
	if got := h.vals[MemoKey(a)]; len(got) != 1 || got[0] != true {
		t.Fatalf("hook captured %v for %v", got, a)
	}
}

func TestMemoHookEviction(t *testing.T) {
	m := NewMemoCap(hookTestOracle(), 2) // single shard (tiny cap)
	h := newRecordingHook()
	m.SetHook(h)

	pats := [][]bool{
		{false, false, false},
		{true, false, false},
		{false, true, false}, // evicts the first
	}
	for _, p := range pats {
		Eval(m, p)
	}
	ins, ev := h.counts()
	if ins != 3 || ev != 1 {
		t.Fatalf("counts = %d inserts / %d evicts, want 3/1", ins, ev)
	}
	if h.evicts[0] != MemoKey(pats[0]) {
		t.Fatalf("evicted %q, want LRU key %q", h.evicts[0], MemoKey(pats[0]))
	}
	if m.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", m.Evictions())
	}
}

func TestMemoPreloadSilent(t *testing.T) {
	inner := NewCounter(hookTestOracle())
	m := NewMemo(inner)
	h := newRecordingHook()
	m.SetHook(h)

	a := []bool{true, true, false}
	m.Preload(MemoKey(a), []bool{true})
	if ins, ev := h.counts(); ins != 0 || ev != 0 {
		t.Fatalf("preload fired the hook: %d/%d", ins, ev)
	}
	if m.Hits() != 0 || m.Misses() != 0 {
		t.Fatalf("preload touched counters: hits=%d misses=%d", m.Hits(), m.Misses())
	}

	// The preloaded entry answers without reaching the inner oracle.
	out := Eval(m, a)
	if len(out) != 1 || out[0] != true {
		t.Fatalf("Eval = %v", out)
	}
	if inner.Queries() != 0 {
		t.Fatalf("preloaded query reached the oracle (%d queries)", inner.Queries())
	}
	if m.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", m.Hits())
	}
}

func TestMemoPreloadEvictionSilent(t *testing.T) {
	m := NewMemoCap(hookTestOracle(), 2)
	h := newRecordingHook()
	m.SetHook(h)
	for _, p := range [][]bool{
		{false, false, false},
		{true, false, false},
		{false, true, false},
		{true, true, false},
	} {
		m.Preload(MemoKey(p), []bool{p[0]})
	}
	if ins, ev := h.counts(); ins != 0 || ev != 0 {
		t.Fatalf("preload-caused evictions fired the hook: %d/%d", ins, ev)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", m.Len())
	}
}

func TestMemoHookBatchPath(t *testing.T) {
	m := NewMemo(hookTestOracle())
	h := newRecordingHook()
	m.SetHook(h)

	pats := [][]bool{
		{false, false, true},
		{true, false, true},
		{false, false, true}, // duplicate inside the batch
	}
	lanes := packPatterns(pats, 3)
	m.EvalBatch(lanes, len(pats))
	if ins, _ := h.counts(); ins != 2 {
		t.Fatalf("batch inserts = %d, want 2 (deduped)", ins)
	}
}

func TestMemoSetHookNilDetaches(t *testing.T) {
	m := NewMemo(hookTestOracle())
	h := newRecordingHook()
	m.SetHook(h)
	m.SetHook(nil)
	Eval(m, []bool{true, false, false})
	if ins, ev := h.counts(); ins != 0 || ev != 0 {
		t.Fatalf("detached hook still fired: %d/%d", ins, ev)
	}
}
