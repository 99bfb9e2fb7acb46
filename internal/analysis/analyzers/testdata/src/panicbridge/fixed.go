package core

import "logicregression/internal/oracle"

// Transport failures cross the bridge as *oracle.Failure.
func strictEval(o oracle.Fallible) []uint64 {
	out, err := o.TryEvalBatch(nil, 1)
	if err != nil {
		panic(oracle.NewFailure(err))
	}
	return out
}

// String panics mark invariant violations — bugs — and stay legal: they
// must keep unwinding past every bridge.
func invariant(o oracle.Oracle, n int) []bool {
	if n < 0 {
		panic("core: negative query count")
	}
	return oracle.Eval(o, nil)
}

// The sanctioned recover shape: bind, assert *oracle.Failure, re-panic
// everything else.
func catchBridge(f func()) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			fl, ok := rec.(*oracle.Failure)
			if !ok {
				panic(rec)
			}
			err = fl.Err
		}
	}()
	f()
	return nil
}

// A type switch with a *oracle.Failure case counts as the typed check.
func catchSwitch(f func()) (err error) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		switch v := rec.(type) {
		case *oracle.Failure:
			err = v.Err
		default:
			panic(rec)
		}
	}()
	f()
	return nil
}
