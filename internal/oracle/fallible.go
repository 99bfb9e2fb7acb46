package oracle

// Fallible oracles — the error-returning face of the black box.
//
// The Oracle interface is deliberately infallible: the learning pipeline
// (support identification, FBDT splitting, refinement) queries it from deep
// inside loops where threading an error return through every stage would
// dominate the code. Real transports fail, though, so the same batch query
// has two forms:
//
//   - Fallible.TryEvalBatch returns (result, error). Transport layers
//     (ioserve.Client, ioserve.ResilientClient, chaos wrappers) implement
//     it natively, next to an EvalBatch that panics.
//   - Oracle.EvalBatch returns results or panics. The pipeline speaks this.
//
// The bridge between them is the Failure type: a transport's EvalBatch
// panics with *Failure on error, and AsFallible converts any Oracle back by
// recovering exactly that panic into an error value. A *Failure unwinding
// through the pipeline is therefore not a crash but a value in flight:
// core.Learn catches it at output granularity and degrades gracefully
// (Result.Degraded) instead of dying.
//
// Errors carry a transient/permanent distinction: Transient marks an error
// as retryable (a timeout, a dropped connection, an injected chaos fault)
// and IsTransient recovers the mark through any amount of %w wrapping.
// Whatever reaches the pipeline as a *Failure is by definition permanent —
// retry layers sit below and only give up on fatal or budget-exhausted
// errors.

import (
	"errors"

	"logicregression/internal/bitvec"
)

// Fallible is a black-box IO-relation generator whose queries can fail.
type Fallible interface {
	NumInputs() int
	NumOutputs() int
	InputNames() []string
	OutputNames() []string
	// TryEvalBatch is Oracle.EvalBatch with failures as error values. An
	// error rejects the whole batch: the result is nil, and the batch may
	// be retried by the caller if IsTransient(err).
	TryEvalBatch(patterns []bitvec.Word, n int) ([]bitvec.Word, error)
}

// Failure is the panic payload a transport's EvalBatch throws when its
// query fails permanently. It is the only panic value core.Learn recovers
// from: anything else keeps unwinding, because a non-transport panic is a
// bug.
type Failure struct {
	Err error
}

// NewFailure wraps err as a Failure panic payload.
func NewFailure(err error) *Failure { return &Failure{Err: err} }

func (f *Failure) Error() string { return "oracle failure: " + f.Err.Error() }

// Unwrap exposes the transport error to errors.Is / errors.As.
func (f *Failure) Unwrap() error { return f.Err }

// transientError marks an error as retryable.
type transientError struct {
	err error
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient marks err as retryable: the operation failed but the same query
// may succeed on a fresh attempt (possibly over a fresh connection). A nil
// err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err carries the Transient mark anywhere in its
// wrap chain. Timeouts from the net package count as transient even without
// an explicit mark.
func IsTransient(err error) bool {
	var te *transientError
	if errors.As(err, &te) {
		return true
	}
	var to interface{ Timeout() bool }
	if errors.As(err, &to) && to.Timeout() {
		return true
	}
	return false
}

// AsFallible lifts any oracle to the error-returning interface. Oracles that
// already implement Fallible are returned unchanged; everything else is
// wrapped so that *Failure panics from strict layers below (ioserve
// clients, Memo over a strict client, ...) surface as error values. Other
// panic values are not recovered — they are bugs, not transport failures.
func AsFallible(o Oracle) Fallible {
	if f, ok := o.(Fallible); ok {
		return f
	}
	return &recoveringFallible{o: o}
}

// recoveringFallible adapts a strict oracle, turning *Failure panics back
// into error values.
type recoveringFallible struct {
	o Oracle
}

func (r *recoveringFallible) NumInputs() int        { return r.o.NumInputs() }
func (r *recoveringFallible) NumOutputs() int       { return r.o.NumOutputs() }
func (r *recoveringFallible) InputNames() []string  { return r.o.InputNames() }
func (r *recoveringFallible) OutputNames() []string { return r.o.OutputNames() }

// catchFailure recovers a *Failure panic into err, re-panicking on anything
// else.
func catchFailure(err *error) {
	if rec := recover(); rec != nil {
		f, ok := rec.(*Failure)
		if !ok {
			panic(rec)
		}
		*err = f.Err
	}
}

func (r *recoveringFallible) TryEvalBatch(patterns []bitvec.Word, n int) (out []bitvec.Word, err error) {
	defer catchFailure(&err)
	return r.o.EvalBatch(patterns, n), nil
}
