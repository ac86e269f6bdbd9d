package forensics

// ValidateJSON checks a serialized witness against the documented schema
// (docs/ALGORITHM.md § "Witnesses and minimization") without external schema
// tooling: the JSON is decoded generically and every required field is
// checked for presence and JSON type. It is the check behind
// `jaaru explain -validate`, which cmd/jaaru's tests run end to end.

import (
	"encoding/json"
	"fmt"
)

// ValidateJSON reports the first schema violation in a serialized witness,
// or nil if the document conforms.
func ValidateJSON(data []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("witness is not a JSON object: %w", err)
	}
	v := &validator{}
	v.str(doc, "program")
	v.boolean(doc, "reproduced")
	if bug := v.object(doc, "bug"); bug != nil {
		v.in("bug", func() {
			v.str(bug, "type")
			v.str(bug, "message")
			v.num(bug, "execution")
			v.str(bug, "choices")
		})
	}
	for i, d := range v.array(doc, "decisions") {
		v.elem("decisions", i, d, func(o map[string]any) {
			v.num(o, "index")
			v.enum(o, "kind", "fail", "rf", "evict")
			v.num(o, "chosen")
			v.num(o, "options")
			v.num(o, "op")
		})
	}
	for i, d := range v.array(doc, "ops") {
		v.elem("ops", i, d, func(o map[string]any) {
			v.num(o, "index")
			v.num(o, "exec")
			v.num(o, "thread")
			v.str(o, "kind")
			v.num(o, "addr")
			for j, t := range v.optArray(o, "transitions") {
				v.elem("transitions", j, t, func(tr map[string]any) {
					v.enum(tr, "phase", "cache", "flush-buffer", "persist-bound", "fence")
					v.num(tr, "op")
					v.num(tr, "seq")
				})
			}
		})
	}
	for i, d := range v.array(doc, "failures") {
		v.elem("failures", i, d, func(o map[string]any) {
			v.num(o, "op")
			v.num(o, "point")
			v.num(o, "exec")
		})
	}
	for i, d := range v.array(doc, "lines") {
		v.elem("lines", i, d, func(o map[string]any) {
			v.num(o, "exec")
			v.num(o, "line")
			for j, e := range v.array(o, "events") {
				v.elem("events", j, e, func(ev map[string]any) {
					v.num(ev, "op")
					v.enum(ev, "kind",
						"store", "clflush", "writeback", "refine-raise", "refine-lower")
					v.num(ev, "seq")
					v.num(ev, "begin")
					v.num(ev, "end")
				})
			}
		})
	}
	for i, d := range v.array(doc, "loads") {
		v.elem("loads", i, d, func(o map[string]any) {
			v.num(o, "op")
			v.num(o, "exec")
			v.num(o, "addr")
			v.str(o, "loc")
			v.num(o, "chosen")
			for j, cd := range v.array(o, "candidates") {
				v.elem("candidates", j, cd, func(cand map[string]any) {
					v.num(cand, "exec")
					v.num(cand, "seq")
					v.boolean(cand, "admitted")
					v.boolean(cand, "chosen")
					v.str(cand, "reason")
				})
			}
		})
	}
	if m, ok := doc["minimized"]; ok && m != nil {
		mo, ok := m.(map[string]any)
		if !ok {
			v.fail("minimized: not an object")
		} else {
			v.in("minimized", func() {
				v.num(mo, "original_len")
				v.num(mo, "minimized_len")
				v.num(mo, "trials")
				v.str(mo, "original_choices")
				v.str(mo, "minimized_choices")
			})
		}
	}
	return v.err
}

// validator accumulates the first error and a field-path prefix.
type validator struct {
	err    error
	prefix string
}

func (v *validator) fail(format string, args ...any) {
	if v.err == nil {
		v.err = fmt.Errorf("witness schema: %s%s", v.prefix, fmt.Sprintf(format, args...))
	}
}

func (v *validator) in(name string, fn func()) {
	old := v.prefix
	v.prefix = old + name + "."
	fn()
	v.prefix = old
}

func (v *validator) str(o map[string]any, key string) {
	if _, ok := o[key].(string); !ok {
		v.fail("%s: missing or not a string", key)
	}
}

func (v *validator) num(o map[string]any, key string) {
	if _, ok := o[key].(float64); !ok {
		v.fail("%s: missing or not a number", key)
	}
}

func (v *validator) boolean(o map[string]any, key string) {
	if _, ok := o[key].(bool); !ok {
		v.fail("%s: missing or not a bool", key)
	}
}

func (v *validator) enum(o map[string]any, key string, allowed ...string) {
	s, ok := o[key].(string)
	if !ok {
		v.fail("%s: missing or not a string", key)
		return
	}
	for _, a := range allowed {
		if s == a {
			return
		}
	}
	v.fail("%s: %q not in %v", key, s, allowed)
}

func (v *validator) object(o map[string]any, key string) map[string]any {
	m, ok := o[key].(map[string]any)
	if !ok {
		v.fail("%s: missing or not an object", key)
		return nil
	}
	return m
}

// array requires key to be present as an array (null is accepted as empty:
// encoding/json renders a nil slice as null).
func (v *validator) array(o map[string]any, key string) []any {
	raw, ok := o[key]
	if !ok {
		v.fail("%s: missing", key)
		return nil
	}
	if raw == nil {
		return nil
	}
	a, ok := raw.([]any)
	if !ok {
		v.fail("%s: not an array", key)
		return nil
	}
	return a
}

// optArray accepts a missing or null key as empty.
func (v *validator) optArray(o map[string]any, key string) []any {
	raw, ok := o[key]
	if !ok || raw == nil {
		return nil
	}
	a, ok := raw.([]any)
	if !ok {
		v.fail("%s: not an array", key)
		return nil
	}
	return a
}

func (v *validator) elem(name string, i int, d any, fn func(map[string]any)) {
	o, ok := d.(map[string]any)
	if !ok {
		v.fail("%s[%d]: not an object", name, i)
		return
	}
	v.in(fmt.Sprintf("%s[%d]", name, i), func() { fn(o) })
}
