package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, labeled samples, and for
// histograms the cumulative _bucket{le=...} series plus _sum and _count.
// UnitSeconds histogram bounds and sums are rendered in seconds, the
// Prometheus base unit for time.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	var b strings.Builder
	lastName := ""
	for _, m := range snap {
		if m.Name != lastName {
			if m.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.Name, escapeHelp(m.Help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.Name, m.Kind)
			lastName = m.Name
		}
		switch {
		case m.Histogram != nil:
			writePromHistogram(&b, m)
		default:
			fmt.Fprintf(&b, "%s%s %d\n", m.Name, promLabels(m.Labels), m.Value)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writePromHistogram(b *strings.Builder, m Metric) {
	h := m.Histogram
	seconds := h.Unit == UnitSeconds.String()
	var cum int64
	for _, bk := range h.Buckets {
		cum += bk.Count
		le := "+Inf"
		if bk.UpperBound != math.MaxInt64 {
			le = promValue(bk.UpperBound, seconds)
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", m.Name, promLabelsLE(m.Labels, le), cum)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", m.Name, promLabels(m.Labels), promValue(h.Sum, seconds))
	// The spec requires _count == the +Inf bucket. Render the cumulative
	// bucket sum rather than the separately-read Count atomic: under
	// concurrent writers the two reads can straddle an observation, and the
	// buckets are what the exposition just claimed.
	fmt.Fprintf(b, "%s_count%s %d\n", m.Name, promLabels(m.Labels), cum)
}

// promValue renders a raw int64 observation, converting nanoseconds to
// seconds for time-unit histograms.
func promValue(v int64, seconds bool) string {
	if !seconds {
		return strconv.FormatInt(v, 10)
	}
	return strconv.FormatFloat(float64(v)/1e9, 'g', -1, 64)
}

// promLabels renders a label set. %q already produces the exposition
// format's escaping for label values (backslash, double quote, newline);
// pre-escaping as well would double every backslash.
func promLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// promLabelsLE renders a label set with the histogram le label appended.
func promLabelsLE(labels []Label, le string) string {
	parts := make([]string, 0, len(labels)+1)
	for _, l := range labels {
		parts = append(parts, fmt.Sprintf("%s=%q", l.Key, l.Value))
	}
	parts = append(parts, fmt.Sprintf("le=%q", le))
	return "{" + strings.Join(parts, ",") + "}"
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// jsonDoc is the snapshot as /metrics.json serves it — the
// machine-readable twin of WritePrometheus. An empty registry serves
// "metrics": [], never null, like every JSON endpoint in the stack.
func (r *Registry) jsonDoc() any {
	metrics := r.Snapshot()
	if metrics == nil {
		metrics = []Metric{}
	}
	return struct {
		Metrics []Metric `json:"metrics"`
	}{Metrics: metrics}
}

// WriteJSONFile writes doc to path as an indented JSON artifact (flight
// dumps, prof.json, incident reports, csdload's reports): the bytes
// ServeJSON would serve.
func WriteJSONFile(path string, doc any) error {
	data, err := marshalJSON(doc)
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return os.WriteFile(path, data, 0o666)
}

// marshalJSON encodes doc the one way the stack serves and stores JSON:
// two-space indented, newline-terminated.
func marshalJSON(doc any) ([]byte, error) {
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}

// WriteSummary writes a human-readable two-part table: scalar metrics, then
// histogram distributions reported as the paper reports Table I — count,
// mean ± 95% CI, and tail quantiles. It is the exit report printed by
// cmd/csddetect.
func (r *Registry) WriteSummary(w io.Writer) error {
	snap := r.Snapshot()
	var b strings.Builder
	var hists []Metric
	wroteScalar := false
	for _, m := range snap {
		if m.Histogram != nil {
			hists = append(hists, m)
			continue
		}
		if !wroteScalar {
			fmt.Fprintf(&b, "%-52s %14s\n", "metric", "value")
			wroteScalar = true
		}
		fmt.Fprintf(&b, "%-52s %14d\n", m.Name+promLabels(m.Labels), m.Value)
	}
	if len(hists) > 0 {
		if wroteScalar {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-44s %8s %26s %10s %10s %10s\n",
			"histogram", "count", "mean ± 95% CI", "p50", "p90", "p99")
		for _, m := range hists {
			h := m.Histogram
			name := m.Name + promLabels(m.Labels)
			if h.Count == 0 {
				fmt.Fprintf(&b, "%-44s %8d %26s %10s %10s %10s\n", name, 0, "-", "-", "-", "-")
				continue
			}
			mean := fmt.Sprintf("%s ± %s",
				formatRaw(h.Mean, h.Unit), formatRaw((h.CIHigh-h.CILow)/2, h.Unit))
			fmt.Fprintf(&b, "%-44s %8d %26s %10s %10s %10s\n",
				name, h.Count, mean,
				formatRaw(h.P50, h.Unit), formatRaw(h.P90, h.Unit), formatRaw(h.P99, h.Unit))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatRaw renders a raw histogram value for humans: durations through
// time.Duration formatting, counts as plain numbers.
func formatRaw(v float64, unit string) string {
	if unit == UnitSeconds.String() {
		return time.Duration(v).Round(10 * time.Nanosecond).String()
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
