package experiments

import (
	"fmt"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
)

// Fig5Result reproduces Figure 5: the MySQL tier's fine-grained (50 ms)
// load and throughput over a 12-second excerpt at WL 7,000, and the
// load/throughput correlation with its congestion point N*.
type Fig5Result struct {
	// Analysis is the full-tier analysis across the measured window.
	Analysis *core.Analysis
	// ExcerptLoad and ExcerptTP are the paper's 12-second timelines.
	ExcerptLoad, ExcerptTP []float64
	// Points is the scatter (one dot per interval, 240 for 12 s at 50 ms
	// in the paper's excerpt; ours covers the full window).
	Points []core.Point
}

// Fig5 runs WL 7,000 in the §II-B configuration (SpeedStep ON at MySQL,
// bursty clients) and applies the fine-grained analysis to the MySQL tier.
func Fig5(opts RunOpts) (*Fig5Result, error) {
	cfg := testbed(7000, opts)
	cfg.DBSpeedStep = true
	_, res, err := simulate(cfg)
	if err != nil {
		return nil, err
	}
	a, err := analyzeInstance(res, "mysql-1", 50*simnet.Millisecond)
	if err != nil {
		return nil, err
	}
	out := &Fig5Result{Analysis: a, Points: a.Points()}
	// 12-second excerpt starting 10 s into the window (or less for short
	// runs).
	excerptStart := res.WindowStart + 10*simnet.Second
	excerptEnd := excerptStart + 12*simnet.Second
	if excerptEnd > res.WindowEnd {
		excerptStart = res.WindowStart
		excerptEnd = res.WindowEnd
	}
	out.ExcerptLoad = a.Load.Slice(excerptStart, excerptEnd)
	out.ExcerptTP = a.TP.Slice(excerptStart, excerptEnd)
	return out, nil
}

// Table renders the Fig 5(c) summary.
func (r *Fig5Result) Table() *Table {
	t := &Table{
		Title:  "Figure 5: MySQL tier fine-grained load/throughput at WL 7,000 (50ms)",
		Header: []string{"Metric", "Value"},
	}
	t.AddRow("intervals (points)", len(r.Points))
	t.AddRow("N* (congestion point)", fmt.Sprintf("%.1f", r.Analysis.NStar.NStar))
	t.AddRow("TPmax (work units/s)", fmt.Sprintf("%.0f", r.Analysis.NStar.TPMax))
	t.AddRow("congested intervals", r.Analysis.CongestedIntervals)
	t.AddRow("congested fraction", fmt.Sprintf("%.3f", r.Analysis.CongestedFraction))
	return t
}

// TimelineString renders the 12-second Fig 5(a)/(b) strips.
func (r *Fig5Result) TimelineString() string {
	return fmt.Sprintf(
		"Figure 5(a) MySQL load @50ms:       %s\nFigure 5(b) MySQL throughput @50ms: %s\n",
		Sparkline(r.ExcerptLoad, 80), Sparkline(r.ExcerptTP, 80))
}
