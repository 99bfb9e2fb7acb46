// The panicbridge fixture. It is type-checked under an internal/core
// import path, where the contract applies: error payloads crossing the
// oracle bridge must be *oracle.Failure, and recovers must type-check.
package core

import (
	"errors"

	"logicregression/internal/oracle"
)

func eval(o oracle.Oracle) []bool { return oracle.Eval(o, nil) }

// A plain error panic on an oracle-reachable path: catchFailure would
// re-panic it, so the "error" crashes the run instead of degrading it.
func rawErrorPanic(o oracle.Oracle, err error) []bool {
	if err != nil {
		panic(err) // want "panic with error payload"
	}
	return eval(o)
}

// Reachability is transitive: this function panics below a helper that
// reaches the oracle.
func wrappedErrorPanic(o oracle.Oracle) []bool {
	out := eval(o)
	if out == nil {
		panic(errors.New("empty result")) // want "panic with error payload"
	}
	return out
}

// A bare recover swallows every panic, bugs included.
func swallowAll(f func()) {
	defer func() {
		recover() // want "discarded"
	}()
	f()
}

// Bound but never inspected: same swallowing, one step removed.
func noAssert(f func()) (err error) {
	defer func() {
		if rec := recover(); rec != nil { // want "never type-asserted"
			err = errors.New("something panicked")
		}
	}()
	f()
	return nil
}

// Asserted, but the non-Failure case is dropped instead of re-panicked.
func noRepanic(f func()) (err error) {
	defer func() {
		if rec := recover(); rec != nil { // want "not re-panicked"
			if fl, ok := rec.(*oracle.Failure); ok {
				err = fl.Err
			}
		}
	}()
	f()
	return nil
}
