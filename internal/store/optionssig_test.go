package store

import (
	"reflect"
	"testing"

	"logicregression/internal/cases"
	"logicregression/internal/core"
	"logicregression/internal/oracle"
)

// resultNeutral lists the core.Options fields OptionsSig leaves out, each
// with the reason it cannot change the circuit stored under a LearnKey.
var resultNeutral = map[string]string{
	"Seed":           "keyed on its own, as LearnKey.Seed",
	"Progress":       "only observes checkpoints: a learn with a handler is byte-identical to one without",
	"Cancel":         "a cancelled learn is reported as Result.Canceled, not stored as a learned circuit",
	"MemoizeQueries": "the memo answers with the black box's own responses, so the learn is byte-identical",
}

// setNonZero stores a non-zero value of v's kind into v and reports whether
// it knew how.
func setNonZero(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.25)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		if !setNonZero(s.Index(0)) {
			return false
		}
		v.Set(s)
	default:
		return false
	}
	return true
}

// exportedLeaves calls visit with the index path and dotted name of every
// exported non-struct field of t, descending into struct fields.
func exportedLeaves(t reflect.Type, index []int, prefix string, visit func([]int, string)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		idx := append(append([]int(nil), index...), i)
		if f.Type.Kind() == reflect.Struct {
			exportedLeaves(f.Type, idx, prefix+f.Name+".", visit)
			continue
		}
		visit(idx, prefix+f.Name)
	}
}

// TestOptionsSigCoversEveryOption: every core.Options field, down to the
// leaves of the nested template and opt configs, either changes the
// signature when set or is listed in resultNeutral. A new option that can
// change the learned circuit therefore cannot be left out of LearnKey
// unnoticed.
func TestOptionsSigCoversEveryOption(t *testing.T) {
	base := OptionsSig(core.Options{})
	exportedLeaves(reflect.TypeOf(core.Options{}), nil, "", func(idx []int, name string) {
		var o core.Options
		settable := setNonZero(reflect.ValueOf(&o).Elem().FieldByIndex(idx))
		changed := settable && OptionsSig(o) != base
		_, neutral := resultNeutral[name]
		switch {
		case neutral && changed:
			t.Errorf("core.Options.%s is listed as result-neutral but OptionsSig renders it", name)
		case !neutral && !settable:
			t.Errorf("core.Options.%s: the test cannot set a %s; list it in resultNeutral with a reason or teach setNonZero the kind", name, reflect.TypeOf(o).FieldByIndex(idx).Type)
		case !neutral && !changed:
			t.Errorf("core.Options.%s is neither rendered by OptionsSig nor listed in resultNeutral with a reason", name)
		}
	})
}

// TestParallelLearnGetsItsOwnKey: a Parallel > 1 learn seeds each output's
// generator on its own and can return another circuit than a sequential
// learn of the same case, so the two must not share a LearnKey. The worker
// count beyond that does not change the circuit and shares one key.
func TestParallelLearnGetsItsOwnKey(t *testing.T) {
	c, err := cases.ByName("case_5")
	if err != nil {
		t.Fatal(err)
	}
	id := oracle.IdentityOf(c.Oracle())
	key := func(opts core.Options) string {
		return LearnKey{Identity: id, Seed: 1, Options: OptionsSig(opts)}.String()
	}
	if key(core.Options{}) == key(core.Options{Parallel: 4}) {
		t.Fatal("a sequential and a Parallel: 4 learn of case_5 share one LearnKey")
	}
	if key(core.Options{Parallel: 1}) != key(core.Options{}) {
		t.Error("Parallel: 1 is the sequential learn but got its own key")
	}
	if key(core.Options{Parallel: 2}) != key(core.Options{Parallel: 4}) {
		t.Error("Parallel: 2 and Parallel: 4 learn the same circuit but got different keys")
	}
}
