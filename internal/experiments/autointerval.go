package experiments

import (
	"fmt"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// AutoIntervalResult implements the paper's stated future work (§III-D):
// automatic selection of the monitoring interval length, evaluated on the
// Fig 8 setting (MySQL at WL 14,000).
type AutoIntervalResult struct {
	// Chosen is the selected interval.
	Chosen simnet.Duration
	// Table is the per-candidate scoring.
	Table []core.IntervalCandidate
}

// AutoInterval runs the Fig 8 workload and scores the candidate interval
// lengths on mysql-1.
func AutoInterval(opts RunOpts) (*AutoIntervalResult, error) {
	cfg := testbed(14000, opts)
	cfg.DBSpeedStep = true
	_, res, err := simulate(cfg)
	if err != nil {
		return nil, err
	}
	visits := trace.Filter(res.Visits, "mysql-1")
	w := core.Window{Start: res.WindowStart, End: res.WindowEnd}
	chosen, table, err := core.ChooseInterval(visits, w, nil)
	if err != nil {
		return nil, fmt.Errorf("auto interval: %w", err)
	}
	return &AutoIntervalResult{Chosen: chosen, Table: table}, nil
}

// RenderTable renders the scoring table.
func (r *AutoIntervalResult) RenderTable() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Future work (§III-D): automatic interval selection — chose %v", simnet.Std(r.Chosen)),
		Header: []string{"Interval", "Fidelity (curve)", "Resolution (transients)", "Score"},
	}
	for _, c := range r.Table {
		t.AddRow(fmt.Sprintf("%v", simnet.Std(c.Interval)),
			fmt.Sprintf("%.3f", c.Fidelity),
			fmt.Sprintf("%.3f", c.Resolution),
			fmt.Sprintf("%.3f", c.Score))
	}
	return t
}
