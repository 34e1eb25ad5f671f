package experiments

import (
	"fmt"

	"transientbd/internal/core"
	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// RobustnessRow is one degraded-capture condition: the injected faults,
// what the lenient pipeline dropped and repaired, and whether the
// root-cause verdict survived.
type RobustnessRow struct {
	// Label names the condition ("5% loss", "skew mysql-1 -5ms", ...).
	Label string
	// Faults is the injection tally.
	Faults ntier.FaultReport
	// Quarantined counts hops lenient assembly dropped; Coverage is the
	// surviving fraction of the baseline's assembled visits.
	Quarantined int
	Coverage    float64
	// Top is the root-cause verdict under this condition; RankStable
	// reports whether it matches the clean baseline's.
	Top        string
	RankStable bool
	// TopScore is Top's root-cause score.
	TopScore float64
}

// RobustnessResult is the graceful-degradation sweep: one n-tier run
// with a known root cause, re-analyzed through the lenient pipeline
// under increasingly degraded captures.
type RobustnessResult struct {
	// BaselineTop is the clean capture's root-cause verdict and score —
	// the ground truth each degraded condition is held to.
	BaselineTop      string
	BaselineTopScore float64
	// Rows are the degraded conditions, in sweep order.
	Rows []RobustnessRow
}

// Robustness measures how detection degrades as its input does. It runs
// ONE scenario with a known, localized root cause (the noisy-neighbor
// CPU hog on mysql-1), then re-analyzes the same wire capture under
// injected faults: message loss at increasing rates, duplication,
// per-server clock skew (with repair), and truncation. The headline
// claim: the root-cause verdict is stable up to ~5% uniform loss,
// because congested-fraction detection depends on per-interval load
// shape, not on catching every message.
func Robustness(opts RunOpts) (*RobustnessResult, error) {
	cfg := ntier.Config{
		Users:    7000,
		Duration: opts.duration(),
		Ramp:     opts.ramp(),
		Seed:     opts.Seed,
		Antagonist: &ntier.AntagonistConfig{
			Target:   "mysql-1",
			Period:   3 * simnet.Second,
			BurstLen: 300 * simnet.Millisecond,
		},
	}
	cfg.AppCollector = 2
	sys, err := ntier.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("robustness: %w", err)
	}
	res, err := sys.Run()
	if err != nil {
		return nil, fmt.Errorf("robustness: %w", err)
	}

	w := core.Window{Start: res.WindowStart, End: res.WindowEnd}
	analyze := func(msgs []trace.Message) ([]core.RootCauseReport, int, int, error) {
		repaired, _ := trace.RepairSkew(msgs)
		visits, arep := trace.AssembleLenient(repaired, trace.AssembleOptions{
			InFlightTimeout: 5 * simnet.Second,
		})
		sysA, err := core.AnalyzeSystemGrouped(trace.PerServer(visits), w, core.Options{
			Interval: 50 * simnet.Millisecond,
		})
		if err != nil {
			return nil, 0, 0, err
		}
		causes := core.AttributeRootCause(sysA, trace.CallGraph(msgs))
		return causes, len(visits), arep.Quarantined(), nil
	}

	baseline, baseVisits, _, err := analyze(res.Messages)
	if err != nil {
		return nil, fmt.Errorf("robustness baseline: %w", err)
	}
	if len(baseline) == 0 {
		return nil, fmt.Errorf("robustness: baseline produced no root-cause ranking")
	}
	out := &RobustnessResult{
		BaselineTop:      baseline[0].Server,
		BaselineTopScore: baseline[0].Score,
	}

	trunc := res.WindowStart + (res.WindowEnd-res.WindowStart)*4/5
	conditions := []struct {
		label string
		spec  ntier.FaultSpec
	}{
		{"1% loss", ntier.FaultSpec{Seed: opts.Seed + 1, LossRate: 0.01}},
		{"2% loss", ntier.FaultSpec{Seed: opts.Seed + 2, LossRate: 0.02}},
		{"5% loss", ntier.FaultSpec{Seed: opts.Seed + 3, LossRate: 0.05}},
		{"10% loss", ntier.FaultSpec{Seed: opts.Seed + 4, LossRate: 0.10}},
		{"5% duplication", ntier.FaultSpec{Seed: opts.Seed + 5, DupRate: 0.05}},
		{"skew mysql-1 -5ms", ntier.FaultSpec{
			SkewByServer: map[string]simnet.Duration{"mysql-1": -5 * simnet.Millisecond},
		}},
		{"truncate at 80%", ntier.FaultSpec{TruncateAt: trunc}},
	}
	for _, c := range conditions {
		degraded, frep := ntier.InjectFaults(res.Messages, c.spec)
		causes, visits, quarantined, err := analyze(degraded)
		if err != nil {
			return nil, fmt.Errorf("robustness %s: %w", c.label, err)
		}
		row := RobustnessRow{
			Label:       c.label,
			Faults:      frep,
			Quarantined: quarantined,
			Coverage:    float64(visits) / float64(baseVisits),
		}
		if len(causes) > 0 {
			row.Top = causes[0].Server
			row.RankStable = causes[0].Server == out.BaselineTop
			row.TopScore = causes[0].Score
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the sweep.
func (r *RobustnessResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Extension: graceful degradation under capture faults (clean baseline root cause: %s, score %.3f)",
			r.BaselineTop, r.BaselineTopScore),
		Header: []string{"Condition", "Dropped", "Dup", "Quarantined", "Coverage", "Root cause", "Score", "Stable"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Label,
			row.Faults.Dropped+row.Faults.Truncated,
			row.Faults.Duplicated,
			row.Quarantined,
			fmt.Sprintf("%.1f%%", 100*row.Coverage),
			row.Top,
			fmt.Sprintf("%.3f", row.TopScore),
			row.RankStable)
	}
	return t
}
