package report

import (
	"encoding/json"
	"fmt"
	"strings"

	"jaaru/internal/forensics"
)

// WitnessJSON serializes a structured witness as indented JSON (trailing
// newline included). Struct field order is fixed, so two witnesses with
// equal contents serialize byte-identically — the property the serial vs
// parallel determinism tests pin.
func WitnessJSON(w *forensics.Witness) ([]byte, error) {
	b, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WitnessText renders a structured witness as the annotated human-readable
// report `jaaru explain` prints: decisions, the TSO-annotated operation trace,
// failure points, per-cache-line persistence timelines, and the read-from
// resolution of every post-failure load.
func WitnessText(w *forensics.Witness) string {
	var b strings.Builder

	fmt.Fprintf(&b, "witness: %s — %s: %s (execution %d)\n",
		w.Program, w.Bug.Type, w.Bug.Message, w.Bug.Execution)
	if w.Bug.Choices == "" {
		fmt.Fprintf(&b, "decisions: (none — the first scenario)\n")
	} else {
		fmt.Fprintf(&b, "decisions: %s\n", w.Bug.Choices)
	}
	if w.Reproduced {
		fmt.Fprintf(&b, "reproduced: yes\n")
	} else {
		fmt.Fprintf(&b, "reproduced: NO — replay diverged; data below is partial\n")
	}
	if m := w.Minimized; m != nil {
		fmt.Fprintf(&b, "minimized: %d -> %d decisions in %d trials\n",
			m.OriginalLen, m.MinimizedLen, m.Trials)
		if m.OriginalChoices != m.MinimizedChoices {
			fmt.Fprintf(&b, "  was: %s\n", orNone(m.OriginalChoices))
			fmt.Fprintf(&b, "  now: %s\n", orNone(m.MinimizedChoices))
		}
	}

	if len(w.Decisions) > 0 {
		fmt.Fprintf(&b, "\n")
		t := New(fmt.Sprintf("recorded decisions (%d)", len(w.Decisions)),
			"#", "kind", "chosen", "at op").AlignRight(0, 2, 3)
		for _, d := range w.Decisions {
			at := "-"
			if d.Op >= 0 {
				at = fmt.Sprintf("%d", d.Op)
			}
			t.Row(d.Index, d.Kind, fmt.Sprintf("%d/%d", d.Chosen, d.Options), at)
		}
		b.WriteString(t.String())
	}

	fmt.Fprintf(&b, "\n")
	t := New(fmt.Sprintf("operation trace (%d operations)", len(w.Ops)),
		"op", "exec", "thread", "operation", "tso transitions").AlignRight(0, 1)
	for _, op := range w.Ops {
		t.Row(op.Index, op.Exec, fmt.Sprintf("T%d", op.Thread),
			opText(op), transitionsText(op.Transitions))
	}
	b.WriteString(t.String())

	if len(w.Failures) > 0 {
		fmt.Fprintf(&b, "\nfailure points:\n")
		for _, f := range w.Failures {
			if f.Point < 0 {
				fmt.Fprintf(&b, "  execution %d ran to completion (end-of-run point, after op %d)\n",
					f.Exec, f.Op)
			} else {
				fmt.Fprintf(&b, "  power failure injected before op %d (failure point %d, execution %d)\n",
					f.Op, f.Point, f.Exec)
			}
		}
	}

	if len(w.Lines) > 0 {
		fmt.Fprintf(&b, "\ncache-line persistence timelines:\n")
		for _, lt := range w.Lines {
			t := New(fmt.Sprintf("exec %d, line 0x%x", lt.Exec, lt.Line),
				"op", "event", "σ", "interval after").AlignRight(0, 2)
			for _, ev := range lt.Events {
				t.Row(ev.Op, ev.Kind, forensics.FormatSeq(ev.Seq),
					intervalText(ev.Begin, ev.End))
			}
			b.WriteString(t.String())
		}
	}

	if len(w.Loads) > 0 {
		fmt.Fprintf(&b, "\npost-failure load resolutions:\n")
		for _, l := range w.Loads {
			fmt.Fprintf(&b, "load of 0x%x at %s (op %d, execution %d, T%d):\n",
				l.Addr, l.Loc, l.Op, l.Exec, l.Thread)
			for i, c := range l.Candidates {
				mark := " "
				if c.Chosen {
					mark = ">"
				}
				src := fmt.Sprintf("exec %d σ=%s val=%#x", c.Exec, forensics.FormatSeq(c.Seq), c.Val)
				if c.Exec < 0 { // pmem.InitialExec: the pool's zeroed initial contents
					src = "initial pool contents (val=0)"
				}
				fmt.Fprintf(&b, "  %s [%d] %s\n        %s\n", mark, i, src, c.Reason)
			}
			for _, s := range l.Refined {
				fmt.Fprintf(&b, "    refine: exec %d line 0x%x %s at σ=%s -> %s\n",
					s.Exec, s.Line, s.Kind, forensics.FormatSeq(s.At),
					intervalText(s.Begin, s.End))
			}
		}
	}
	return b.String()
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func opText(o forensics.Op) string {
	switch o.Kind {
	case "sfence", "mfence":
		return o.Kind
	case "clflush", "clflushopt":
		return fmt.Sprintf("%s 0x%x", o.Kind, o.Addr)
	default:
		return fmt.Sprintf("%s 0x%x/%d = %#x", o.Kind, o.Addr, o.Size, o.Val)
	}
}

func transitionsText(ts []forensics.Transition) string {
	if len(ts) == 0 {
		return ""
	}
	parts := make([]string, 0, len(ts))
	for _, t := range ts {
		parts = append(parts, fmt.Sprintf("%s@σ%s", t.Phase, forensics.FormatSeq(t.Seq)))
	}
	return strings.Join(parts, " ")
}

func intervalText(begin, end uint64) string {
	return fmt.Sprintf("[%d, %s)", begin, forensics.FormatSeq(end))
}
