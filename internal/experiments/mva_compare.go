package experiments

import (
	"fmt"

	"transientbd/internal/mva"
	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
	"transientbd/internal/stats"
	"transientbd/internal/workload"
)

// MVARow compares the analytical baseline with the simulation at one
// workload.
type MVARow struct {
	Users int
	// SimThroughput / MVAThroughput in pages/s.
	SimThroughput, MVAThroughput float64
	// SimMeanRT / MVAMeanRT in seconds.
	SimMeanRT, MVAMeanRT float64
	// SimFracOver2s is the measured SLA-violation rate — the quantity a
	// mean-value model cannot see.
	SimFracOver2s float64
	// SimP99RT is the measured 99th-percentile RT in seconds: a tail
	// every run has, even one too short to cross the 2 s SLA. It is not
	// rendered.
	SimP99RT float64
}

// MVACompareResult reproduces the §V argument against MVA-based models
// (Urgaonkar et al.): Mean Value Analysis predicts the simulated means
// well across the workload range, yet is structurally blind to the
// transient-bottleneck-driven response-time tail that violates SLAs long
// before the knee.
type MVACompareResult struct {
	Rows []MVARow
}

// stationsFromMix derives the closed-network stations from the workload
// mix and the default topology (1L/2S/1L/2S, 2 cores per VM).
func stationsFromMix(mix []workload.Interaction) []mva.Station {
	st := workload.Stats(mix)
	return []mva.Station{
		{Name: "apache", Demand: st.WebWorkPerPage, Servers: 2},
		{Name: "tomcat", Demand: st.AppWorkPerPage, Servers: 4},
		{Name: "cjdbc", Demand: st.ClusterWorkPerPage, Servers: 2},
		{Name: "mysql", Demand: st.DBWorkPerPage, Servers: 4},
	}
}

// MVACompare runs the simulation (SpeedStep off, healthy collector) and
// the MVA model at several workloads.
func MVACompare(workloads []int, opts RunOpts) (*MVACompareResult, error) {
	if len(workloads) == 0 {
		workloads = []int{2000, 6000, 8000, 11000, 14000}
	}
	mix := workload.BrowseOnlyMix()
	stations := stationsFromMix(mix)
	burst := ntier.DefaultBurst()
	effThink := simnet.Duration(float64(8400*simnet.Millisecond) / burst.EffectiveMultiplier())

	out := &MVACompareResult{}
	for _, wl := range workloads {
		_, res, err := simulate(testbed(wl, opts))
		if err != nil {
			return nil, fmt.Errorf("mva compare wl %d: %w", wl, err)
		}
		pred, err := mva.Solve(stations, effThink, wl)
		if err != nil {
			return nil, fmt.Errorf("mva solve wl %d: %w", wl, err)
		}
		rts := workload.ResponseTimesSeconds(res.Samples)
		p99, _ := stats.Percentile(rts, 99)
		out.Rows = append(out.Rows, MVARow{
			Users:         wl,
			SimThroughput: res.PagesPerSecond(),
			MVAThroughput: pred.Throughput,
			SimMeanRT:     stats.Mean(rts),
			MVAMeanRT:     pred.ResponseTime.Seconds(),
			SimFracOver2s: stats.FractionAbove(rts, 2.0),
			SimP99RT:      p99,
		})
	}
	return out, nil
}

// Table renders the comparison.
func (r *MVACompareResult) Table() *Table {
	t := &Table{
		Title:  "Baseline: exact MVA vs simulation (browse-only, SpeedStep off)",
		Header: []string{"WL", "X sim (pages/s)", "X MVA", "RT sim (s)", "RT MVA (s)", "%RT>2s sim", "%RT>2s MVA"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Users,
			fmt.Sprintf("%.0f", row.SimThroughput),
			fmt.Sprintf("%.0f", row.MVAThroughput),
			fmt.Sprintf("%.3f", row.SimMeanRT),
			fmt.Sprintf("%.3f", row.MVAMeanRT),
			fmt.Sprintf("%.2f%%", 100*row.SimFracOver2s),
			"0.00% (structural)")
	}
	return t
}
