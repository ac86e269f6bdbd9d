package telemetry

import (
	"fmt"
	"io"
	"strings"

	"jaaru/internal/obs"
)

// Label is one Prometheus label pair.
type Label struct{ Name, Value string }

// Series is one labeled metrics source: a merged obs snapshot plus its timer
// histograms. The coordinator passes one Series per job (label job="...");
// the standalone checker and the worker pass exactly one, unlabeled.
type Series struct {
	Labels  []Label
	Metrics obs.Metrics
	Hists   obs.HistVec
}

// histFamily is the one histogram family: per-phase latency distributions,
// distinguished by the timer label.
const histFamily = "jaaru_phase_latency_ns"

// WriteMetrics renders the series in Prometheus text exposition format
// (version 0.0.4): every row of obs.Fields becomes a gauge family named
// jaaru_<name> with one sample per series, and every populated timer
// histogram becomes labeled samples of the jaaru_phase_latency_ns histogram
// family. Only populated buckets are emitted (cumulative counts stay exact;
// sparse `le` sets are valid exposition), so a scrape is a few KB, not the
// full 976-bucket layout.
func WriteMetrics(w io.Writer, series ...Series) error {
	vals := make([][obs.NumFields]int64, len(series))
	for si := range series {
		vals[si] = series[si].Metrics.Values()
	}
	for i, f := range obs.Fields {
		if _, err := fmt.Fprintf(w, "# TYPE jaaru_%s gauge\n", f.Name); err != nil {
			return err
		}
		for si := range series {
			if _, err := fmt.Fprintf(w, "jaaru_%s%s %d\n", f.Name, labelString(series[si].Labels, "", 0), vals[si][i]); err != nil {
				return err
			}
		}
	}

	any := false
	for si := range series {
		for t := range series[si].Hists {
			if series[si].Hists[t].Count > 0 {
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", histFamily); err != nil {
		return err
	}
	for si := range series {
		s := &series[si]
		for t := range s.Hists {
			h := s.Hists[t]
			if h.Count == 0 {
				continue
			}
			timer := obs.Timer(t).String()
			var cum int64
			for i, n := range h.Counts {
				if n == 0 {
					continue
				}
				cum += n
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", histFamily,
					labelString(s.Labels, timer, obs.HistBucketUpper(i)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", histFamily,
				labelString(s.Labels, timer, -1), h.Count); err != nil {
				return err
			}
			base := labelString(append(append([]Label(nil), s.Labels...),
				Label{"timer", timer}), "", 0)
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n",
				histFamily, base, h.Sum, histFamily, base, h.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelString renders a label set. A non-empty timer adds timer="..." and an
// le label: le >= 0 renders the bound, le < 0 renders +Inf.
func labelString(labels []Label, timer string, le int64) string {
	var parts []string
	for _, l := range labels {
		// %q escaping (backslash, quote, newline) matches the exposition
		// format's label escaping rules.
		parts = append(parts, fmt.Sprintf("%s=%q", l.Name, l.Value))
	}
	if timer != "" {
		parts = append(parts, fmt.Sprintf("timer=%q", timer))
		if le >= 0 {
			parts = append(parts, fmt.Sprintf("le=%q", fmt.Sprint(le)))
		} else {
			parts = append(parts, `le="+Inf"`)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}
