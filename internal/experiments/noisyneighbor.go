package experiments

import (
	"fmt"

	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
	"transientbd/internal/workload"
)

// NoisyNeighborResult demonstrates the method's generality on a third
// transient-bottleneck cause: periodic CPU theft by a co-located VM.
// Neither GC nor SpeedStep is active; only one of the two identical MySQL
// hosts suffers the antagonist — and the per-server analysis must
// localize it.
type NoisyNeighborResult struct {
	// Victim and Twin are the analyses of mysql-1 (with antagonist) and
	// mysql-2 (without).
	Victim, Twin *core.Analysis
	// Ranking is the worst-first raw congestion ranking. In a closed
	// n-tier system the victim's freezes back requests up into every
	// upstream tier, so the raw ranking flags the whole call chain.
	Ranking []core.ServerReport
	// Verdicts are the cause engine's ranked root-cause verdicts, which
	// discount congestion explained by a congested downstream tier (call
	// graph derived from the run's visits); the victim must lead here.
	Verdicts []cause.Verdict
	// VictimUtil and TwinUtil are window-average CPU utilizations — the
	// coarse view, which shows elevated-but-unsaturated usage.
	VictimUtil, TwinUtil float64
}

// noisyNeighborConfig is the testbed both noisy-neighbor extensions run:
// WL 7,000 with a periodic full-core hog (300 ms every 3 s) on mysql-1.
// Client bursts are off, so the antagonist is the only transient cause.
func noisyNeighborConfig(opts RunOpts) ntier.Config {
	cfg := testbed(7000, opts)
	cfg.Burst = workload.BurstConfig{}
	cfg.Antagonist = &ntier.AntagonistConfig{
		Target:   "mysql-1",
		Period:   3 * simnet.Second,
		BurstLen: 300 * simnet.Millisecond,
	}
	return cfg
}

// NoisyNeighbor runs WL 7,000 with a periodic full-core hog on mysql-1,
// a controlled experiment isolating the localization question.
func NoisyNeighbor(opts RunOpts) (*NoisyNeighborResult, error) {
	_, res, err := simulate(noisyNeighborConfig(opts))
	if err != nil {
		return nil, fmt.Errorf("noisy neighbor: %w", err)
	}
	w := core.Window{Start: res.WindowStart, End: res.WindowEnd}
	sysA, err := core.AnalyzeSystem(res.Visits, w, core.Options{Interval: 50 * simnet.Millisecond})
	if err != nil {
		return nil, err
	}
	var graph trace.CallGraphBuilder
	for _, v := range res.Visits {
		graph.Add(v)
	}
	victim, twin := sysA.PerServer["mysql-1"], sysA.PerServer["mysql-2"]
	if victim == nil || twin == nil {
		return nil, fmt.Errorf("noisy neighbor: no analysis of mysql-1 or mysql-2")
	}
	return &NoisyNeighborResult{
		Victim:     victim,
		Twin:       twin,
		Ranking:    sysA.Ranking,
		Verdicts:   cause.AttributeAnalyses(sysA.Ranked(), cause.Options{Downstream: graph.Graph()}),
		VictimUtil: res.Utilization["mysql-1"],
		TwinUtil:   res.Utilization["mysql-2"],
	}, nil
}

// Table renders the localization result.
func (r *NoisyNeighborResult) Table() *Table {
	t := &Table{
		Title:  "Extension: noisy-neighbor CPU theft on mysql-1 (WL 7,000, no GC/SpeedStep)",
		Header: []string{"Metric", "mysql-1 (victim)", "mysql-2 (twin)"},
	}
	t.AddRow("congested fraction",
		fmt.Sprintf("%.3f", r.Victim.CongestedFraction),
		fmt.Sprintf("%.3f", r.Twin.CongestedFraction))
	t.AddRow("POIs", len(r.Victim.POIs), len(r.Twin.POIs))
	t.AddRow("window-avg CPU",
		fmt.Sprintf("%.1f%%", 100*r.VictimUtil),
		fmt.Sprintf("%.1f%%", 100*r.TwinUtil))
	worst := "-"
	if len(r.Ranking) > 0 {
		worst = r.Ranking[0].Server
	}
	rootCause := "-"
	if len(r.Verdicts) > 0 {
		v := r.Verdicts[0]
		rootCause = fmt.Sprintf("%s %s (confidence %.2f, score %.3f)", v.Server, v.Kind, v.Confidence, v.Score)
	}
	t.Rows = append(t.Rows, []string{"raw ranking blames", worst, "(whole chain backs up)"})
	t.Rows = append(t.Rows, []string{"root-cause attribution", rootCause, ""})
	return t
}
