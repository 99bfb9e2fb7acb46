package oracle

// Transcript recording and replay: a Recorder logs every query/response
// pair of a black-box session to a writer, and Replay serves a recorded
// session back as an Oracle. This turns an expensive or remote black box
// (a live iogen server, a slow generator) into a reproducible offline
// artifact for debugging learner behaviour.
//
// Format: a two-line header with the port names, then one line per query:
//
//	inputs a b c
//	outputs z
//	010 1
//	111 0

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"

	"logicregression/internal/bitvec"
)

// Recorder wraps an oracle and appends every query to w. It is safe for
// concurrent use; line writes are serialized.
type Recorder struct {
	inner Oracle
	mu    sync.Mutex
	w     *bufio.Writer
	err   error
}

// NewRecorder wraps o, writing the transcript header immediately.
func NewRecorder(o Oracle, w io.Writer) (*Recorder, error) {
	r := &Recorder{inner: o, w: bufio.NewWriter(w)}
	fmt.Fprintf(r.w, "inputs %s\n", strings.Join(o.InputNames(), " "))
	fmt.Fprintf(r.w, "outputs %s\n", strings.Join(o.OutputNames(), " "))
	if err := r.w.Flush(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Recorder) NumInputs() int        { return r.inner.NumInputs() }
func (r *Recorder) NumOutputs() int       { return r.inner.NumOutputs() }
func (r *Recorder) InputNames() []string  { return r.inner.InputNames() }
func (r *Recorder) OutputNames() []string { return r.inner.OutputNames() }

// EvalBatch forwards the batch to the inner oracle and logs every pattern of
// it, in pattern order, one line per pattern — so a transcript replays the
// same whichever batch sizes recorded it.
func (r *Recorder) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	nIn, nOut := r.inner.NumInputs(), r.inner.NumOutputs()
	w := Words(n)
	checkBatch(len(patterns), nIn, n)
	out := r.inner.EvalBatch(patterns, n)
	in := make([]bool, nIn)
	res := make([]bool, nOut)
	r.mu.Lock()
	for k := 0; k < n; k++ {
		patternBools(patterns, w, nIn, k, in)
		patternBools(out, w, nOut, k, res)
		fmt.Fprintf(r.w, "%s %s\n", bitString(in), bitString(res))
	}
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	return out
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func bitString(bits []bool) string {
	buf := make([]byte, len(bits))
	for i, b := range bits {
		if b {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// Replay is an Oracle backed by a recorded transcript. Queries not present
// in the transcript panic with a descriptive message — a replayed session
// can only answer what the original session asked (run the learner with the
// same seed and options as the recording).
type Replay struct {
	ins, outs []string
	responses map[string][]bool
}

// NewReplay parses a transcript.
func NewReplay(r io.Reader) (*Replay, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	readHeader := func(keyword string) ([]string, error) {
		if !sc.Scan() {
			return nil, fmt.Errorf("oracle: transcript missing %q header", keyword)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 1 || fields[0] != keyword {
			return nil, fmt.Errorf("oracle: expected %q header, got %q", keyword, sc.Text())
		}
		return fields[1:], nil
	}
	ins, err := readHeader("inputs")
	if err != nil {
		return nil, err
	}
	outs, err := readHeader("outputs")
	if err != nil {
		return nil, err
	}
	rp := &Replay{ins: ins, outs: outs, responses: make(map[string][]bool)}
	lineNo := 2
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || len(fields[0]) != len(ins) || len(fields[1]) != len(outs) {
			return nil, fmt.Errorf("oracle: transcript line %d malformed: %q", lineNo, line)
		}
		out, err := parseBitString(fields[1])
		if err != nil {
			return nil, fmt.Errorf("oracle: transcript line %d: %v", lineNo, err)
		}
		if _, err := parseBitString(fields[0]); err != nil {
			return nil, fmt.Errorf("oracle: transcript line %d: %v", lineNo, err)
		}
		rp.responses[fields[0]] = out
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rp, nil
}

func parseBitString(s string) ([]bool, error) {
	out := make([]bool, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			out[i] = true
		default:
			return nil, fmt.Errorf("bad bit %q", s[i])
		}
	}
	return out, nil
}

// NumQueries returns the number of distinct recorded queries.
func (r *Replay) NumQueries() int { return len(r.responses) }

func (r *Replay) NumInputs() int        { return len(r.ins) }
func (r *Replay) NumOutputs() int       { return len(r.outs) }
func (r *Replay) InputNames() []string  { return append([]string(nil), r.ins...) }
func (r *Replay) OutputNames() []string { return append([]string(nil), r.outs...) }

// EvalBatch answers every pattern of the batch from the transcript; any
// pattern absent from the recording panics.
func (r *Replay) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	return evalPerPattern(len(r.ins), patterns, n, func(a []bool) []bool {
		key := bitString(a)
		out, ok := r.responses[key]
		if !ok {
			panic(fmt.Sprintf("oracle: replay has no response for query %s (replay with the recording session's seed and options)", key))
		}
		return out
	})
}

// Fork returns the replay itself: the response table is read-only after
// construction, so one Replay may serve many goroutines.
func (r *Replay) Fork() Oracle { return r }
