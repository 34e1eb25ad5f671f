package experiments

import (
	"fmt"

	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
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
	// Top and TopKind are the server and cause kind of the top root-cause
	// verdict under this condition; RankStable reports whether Top
	// matches the clean baseline's server, whatever the kinds.
	Top        string
	TopKind    cause.Kind
	RankStable bool
	// TopScore is the top verdict's score.
	TopScore float64
}

// RobustnessResult is the graceful-degradation sweep: one n-tier run
// with a known root cause, re-analyzed through the lenient pipeline
// under increasingly degraded captures.
type RobustnessResult struct {
	// BaselineTop is the server of the clean capture's top root-cause
	// verdict — the ground truth each degraded condition is held to —
	// shown with that verdict's kind and score.
	BaselineTop      string
	BaselineTopKind  cause.Kind
	BaselineTopScore float64
	// Rows are the degraded conditions, in sweep order.
	Rows []RobustnessRow
}

// Robustness measures how detection degrades as its input does. It runs
// ONE scenario with a known, localized root cause (the noisy-neighbor
// CPU hog on mysql-1), then re-analyzes the same wire capture under
// injected faults: message loss at increasing rates, duplication,
// per-server clock skew (with repair), and truncation. The headline
// claim: the top verdict's server is stable up to ~5% uniform loss,
// because congested-fraction detection depends on per-interval load
// shape, not on catching every message.
func Robustness(opts RunOpts) (*RobustnessResult, error) {
	_, res, err := simulate(noisyNeighborConfig(opts))
	if err != nil {
		return nil, fmt.Errorf("robustness: %w", err)
	}
	w := core.Window{Start: res.WindowStart, End: res.WindowEnd}

	baseline, baseVisits, _, err := attributeCapture(res.Messages, w)
	if err != nil {
		return nil, fmt.Errorf("robustness baseline: %w", err)
	}
	if len(baseline) == 0 {
		return nil, fmt.Errorf("robustness: baseline produced no root-cause verdict")
	}
	out := &RobustnessResult{
		BaselineTop:      baseline[0].Server,
		BaselineTopKind:  baseline[0].Kind,
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
		verdicts, visits, quarantined, err := attributeCapture(degraded, w)
		if err != nil {
			return nil, fmt.Errorf("robustness %s: %w", c.label, err)
		}
		row := RobustnessRow{
			Label:       c.label,
			Faults:      frep,
			Quarantined: quarantined,
			Coverage:    float64(visits) / float64(baseVisits),
		}
		if len(verdicts) > 0 {
			row.Top = verdicts[0].Server
			row.TopKind = verdicts[0].Kind
			row.RankStable = verdicts[0].Server == out.BaselineTop
			row.TopScore = verdicts[0].Score
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the sweep.
func (r *RobustnessResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Extension: graceful degradation under capture faults (clean baseline root cause: %s %s, score %.3f)",
			r.BaselineTop, r.BaselineTopKind, r.BaselineTopScore),
		Header: []string{"Condition", "Dropped", "Dup", "Quarantined", "Coverage", "Root cause", "Kind", "Score", "Stable"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Label,
			row.Faults.Dropped+row.Faults.Truncated,
			row.Faults.Duplicated,
			row.Quarantined,
			fmt.Sprintf("%.1f%%", 100*row.Coverage),
			row.Top,
			row.TopKind,
			fmt.Sprintf("%.3f", row.TopScore),
			row.RankStable)
	}
	return t
}
