package load

import (
	"fmt"
	"io"
	"strings"
)

// WriteText renders the human-facing attainment report.
func (r *Result) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "csdload: %s arrivals @ %.0f req/s for %.1fs (warmup %.1fs, seed %d, %d pids)\n",
		r.Arrivals, r.RateHz, r.DurationSecond, r.WarmupSeconds, r.Seed, r.PIDs)
	fmt.Fprintf(&b, "schedule  %d arrivals, digest %s\n", r.Scheduled, r.ScheduleDigest)
	fmt.Fprintf(&b, "requests  %d measured (%d warmup) | %d ok, %d failed, %d shed | %.0f req/s sustained\n",
		r.Requests, r.Warmup, r.Succeeded, r.Failed, r.Shed, r.ThroughputHz)
	if len(r.Errors) > 0 {
		b.WriteString("errors    ")
		for i, e := range r.Errors {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%d", e.Reason, e.Count)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "latency   p50 %.3fms  p90 %.3fms  p99 %.3fms  max %.3fms  (from intended arrival)\n",
		r.Latency.P50MS, r.Latency.P90MS, r.Latency.P99MS, r.Latency.MaxMS)

	if r.SLO != nil {
		b.WriteString("\nSLO attainment\n")
		for _, o := range r.SLO.Objectives {
			verdict := "MET"
			if !o.Met {
				verdict = "VIOLATED"
			}
			fmt.Fprintf(&b, "  %-16s %-12s target %.4f  attained %.4f  budget %+.1f%%  [%s]\n",
				o.Name, o.Kind, o.Target, o.Attainment, o.BudgetRemaining*100, verdict)
			for _, br := range o.Burns {
				state := "ok"
				if br.Firing {
					state = "FIRING"
				}
				fmt.Fprintf(&b, "    rule %-6s burn %.2fx/%.2fx (threshold %.1fx over %s/%s)  %s",
					br.Rule, br.BurnLong, br.BurnShort, br.Threshold,
					secondsLabel(br.LongSeconds), secondsLabel(br.ShortSeconds), state)
				if br.Firings > 0 {
					fmt.Fprintf(&b, "  fired %dx", br.Firings)
				}
				b.WriteByte('\n')
			}
		}
		if len(r.SLO.Alerts) > 0 {
			fmt.Fprintf(&b, "\nalert transitions (%d, incidents opened %d)\n",
				len(r.SLO.Alerts), r.SLO.IncidentsOpened)
			for _, a := range r.SLO.Alerts {
				fmt.Fprintf(&b, "  %s %s/%s burn %.1fx/%.1fx",
					a.State, a.Objective, a.Rule, a.BurnLong, a.BurnShort)
				if a.IncidentID != 0 {
					fmt.Fprintf(&b, "  incident #%d", a.IncidentID)
				}
				b.WriteByte('\n')
			}
		}
	}
	if q := r.Quality; q != nil {
		b.WriteString("\ndetection quality\n")
		fmt.Fprintf(&b, "  confusion tp=%d fp=%d tn=%d fn=%d  (%d labeled windows, %d unlabeled)\n",
			q.Total.TP, q.Total.FP, q.Total.TN, q.Total.FN, q.Labeled, q.Unlabeled)
		fmt.Fprintf(&b, "  rates     recall %.4f  fpr %.4f  precision %.4f  accuracy %.4f\n",
			q.Total.Recall, q.Total.FPR, q.Total.Precision, q.Total.Accuracy)
		fmt.Fprintf(&b, "  to-flag   p50 %.0f  p99 %.0f  max %.0f windows  (%d flagged processes of %d tracked)\n",
			q.WindowsToFlag.P50, q.WindowsToFlag.P99, q.WindowsToFlag.Max,
			q.Processes.Flagged, q.Processes.Tracked)
		if q.Drift.Reference != "" {
			state := "stable"
			if q.Drift.Drifted {
				state = "DRIFTED"
			}
			if q.Drift.LowCount {
				state = "low-count"
			}
			fmt.Fprintf(&b, "  drift     psi %.4f vs %s (threshold %.2f)  [%s]\n",
				q.Drift.PSI, q.Drift.Reference, q.Drift.Threshold, state)
		}
	}
	if len(r.Chaos) > 0 {
		b.WriteString("\nchaos steps\n")
		for _, c := range r.Chaos {
			fmt.Fprintf(&b, "  %7.2fs %s", c.ExecutedSeconds, c.Name)
			if c.Err != "" {
				fmt.Fprintf(&b, "  (error: %s)", c.Err)
			}
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// secondsLabel renders a burn window compactly: sub-second windows in
// milliseconds ("400ms"), whole seconds without a fraction ("2s").
func secondsLabel(s float64) string {
	if s < 1 {
		return fmt.Sprintf("%.0fms", s*1000)
	}
	return fmt.Sprintf("%.0fs", s)
}
