package experiments

import (
	"fmt"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/stats"
)

// Fig8Series is the analysis at one monitoring interval length.
type Fig8Series struct {
	Interval simnet.Duration
	// Points is the number of (load, tp) samples (paper: 9,000 / 3,600 /
	// 180 for 20 ms / 50 ms / 1 s over 3 minutes).
	Points int
	// Correlation is the Pearson r between load and throughput across
	// unsaturated intervals — a proxy for how cleanly the main sequence
	// curve shows.
	Correlation float64
	// MaxLoad is the largest per-interval load observed: long intervals
	// average transient spikes away.
	MaxLoad float64
	// CongestedFraction under the §III classification.
	CongestedFraction float64
	// Analysis is the full result.
	Analysis *core.Analysis
}

// Fig8Result reproduces Figure 8: the impact of the monitoring interval
// length on the load/throughput correlation for MySQL at WL 14,000.
type Fig8Result struct {
	Series []Fig8Series
}

// Fig8 analyzes the same WL 14,000 run at 20 ms, 50 ms and 1 s.
func Fig8(opts RunOpts) (*Fig8Result, error) {
	cfg := testbed(14000, opts)
	cfg.DBSpeedStep = true
	_, res, err := simulate(cfg)
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{}
	for _, interval := range []simnet.Duration{
		20 * simnet.Millisecond,
		50 * simnet.Millisecond,
		simnet.Second,
	} {
		a, err := analyzeInstance(res, "mysql-1", interval)
		if err != nil {
			return nil, fmt.Errorf("fig8 interval %v: %w", interval, err)
		}
		load := a.Load.Values()
		tp := a.TP.Values()
		maxLoad := 0.0
		for _, l := range load {
			if l > maxLoad {
				maxLoad = l
			}
		}
		out.Series = append(out.Series, Fig8Series{
			Interval:          interval,
			Points:            a.Load.Len(),
			Correlation:       stats.PearsonR(load, tp),
			MaxLoad:           maxLoad,
			CongestedFraction: a.CongestedFraction,
			Analysis:          a,
		})
	}
	return out, nil
}

// Table renders the Fig 8 comparison.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title:  "Figure 8: monitoring interval length vs load/throughput analysis (MySQL, WL 14,000)",
		Header: []string{"Interval", "Points", "Load/TP Pearson r", "Max load", "Congested fraction"},
	}
	for _, s := range r.Series {
		t.AddRow(fmt.Sprintf("%v", simnet.Std(s.Interval)),
			s.Points,
			fmt.Sprintf("%.3f", s.Correlation),
			fmt.Sprintf("%.1f", s.MaxLoad),
			fmt.Sprintf("%.3f", s.CongestedFraction))
	}
	return t
}
