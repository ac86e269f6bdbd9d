package core

import (
	"fmt"
	"reflect"
	"testing"
)

// withDefaults must be idempotent: worker clones (parallel.go) and the
// Replay/FormatWitness re-runs normalize an already normalized Options, and
// a second pass flipping a disabled feature back to its default was the bug
// this locks out (a disabled MaxFailures collapsed to 0, which the next pass
// read as "use the default 1").
func TestWithDefaultsIdempotent(t *testing.T) {
	cases := []Options{
		{},
		{MaxFailures: -1},
		{MaxFailures: -3},
		{MaxFailures: 2},
		{Workers: -1},
		{MaxFailures: -1, Workers: 4},
		{Snapshots: -1},
		{Snapshots: -2},
		{Snapshots: 1},
	}
	for _, o := range cases {
		once := o.withDefaults()
		twice := once.withDefaults()
		if once != twice {
			t.Errorf("withDefaults not idempotent for %+v:\n once: %+v\ntwice: %+v",
				o, once, twice)
		}
	}
	if n := (Options{MaxFailures: -1}).withDefaults().MaxFailures; n != -1 {
		t.Errorf("disabled MaxFailures normalized to %d, want the sentinel -1", n)
	}
	if n := (Options{}).withDefaults().Snapshots; n != 1 {
		t.Errorf("default Snapshots normalized to %d, want 1 (enabled)", n)
	}
	if n := (Options{Snapshots: -5}).withDefaults().Snapshots; n != -1 {
		t.Errorf("disabled Snapshots normalized to %d, want the sentinel -1", n)
	}
}

// TestWithDefaultsIdempotentEveryField sweeps every Options field by
// reflection — zero, default-ish, and the negative sentinel probes for
// numeric fields — so a newly added field cannot ship a non-idempotent
// normalization unnoticed: the hand-maintained case list above can lag the
// struct, this sweep cannot.
func TestWithDefaultsIdempotentEveryField(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	check := func(label string, o Options) {
		t.Helper()
		once := o.withDefaults()
		twice := once.withDefaults()
		if once != twice {
			t.Errorf("%s: withDefaults not idempotent:\n once: %+v\ntwice: %+v", label, once, twice)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		probes := []reflect.Value{}
		switch field.Type.Kind() {
		case reflect.Int, reflect.Int64:
			for _, v := range []int64{0, 1, 2, -1, -7} {
				probes = append(probes, reflect.ValueOf(v).Convert(field.Type))
			}
		case reflect.Uint64:
			for _, v := range []uint64{0, 1, RootSize, 1 << 24} {
				probes = append(probes, reflect.ValueOf(v).Convert(field.Type))
			}
		case reflect.Bool:
			probes = append(probes, reflect.ValueOf(true), reflect.ValueOf(false))
		case reflect.Interface:
			continue // EventTrace: not normalized, not comparable via !=
		default:
			t.Fatalf("Options.%s has kind %v: teach this sweep how to probe it", field.Name, field.Type.Kind())
		}
		for _, p := range probes {
			var o Options
			reflect.ValueOf(&o).Elem().Field(i).Set(p)
			check(fmt.Sprintf("%s=%v", field.Name, p.Interface()), o)
		}
	}
}
