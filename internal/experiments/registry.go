package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner regenerates one paper artifact and writes its text rendering.
type Runner struct {
	// ID is the artifact identifier, e.g. "fig2", "tableI".
	ID string
	// Description summarizes what the artifact shows.
	Description string
	// Run executes the experiment and writes the rows/series to w.
	Run func(w io.Writer, opts RunOpts) error
}

// entry adapts one experiment to the Runner shape: run it, then print
// each of its renderings on its own line.
func entry[R any](id, description string, run func(RunOpts) (R, error), render func(R) []any) Runner {
	return Runner{ID: id, Description: description, Run: func(w io.Writer, opts RunOpts) error {
		r, err := run(opts)
		if err != nil {
			return err
		}
		for _, v := range render(r) {
			fmt.Fprintln(w, v)
		}
		return nil
	}}
}

// Registry returns every experiment runner, sorted by ID.
func Registry() []Runner {
	runners := []Runner{
		entry("fig2", "Throughput/RT vs workload sweep + RT histogram at WL 8,000 (SpeedStep ON)",
			func(o RunOpts) (*Fig2Result, error) { return Fig2(nil, o) },
			func(r *Fig2Result) []any { return []any{r.Table(), r.HistogramString()} }),
		entry("fig3", "Tomcat/MySQL CPU timelines at 1s and Table I at WL 8,000",
			Fig3TableI, func(r *Fig3Result) []any { return []any{r.TimelineString(), r.Table()} }),
		entry("fig4", "Black-box transaction trace reconstruction and accuracy",
			Fig4, func(r *Fig4Result) []any { return []any{r.Table(), r.SampleTransaction} }),
		entry("fig5", "MySQL fine-grained load/throughput at WL 7,000 with N*",
			Fig5, func(r *Fig5Result) []any { return []any{r.TimelineString(), r.Table()} }),
		entry("fig6", "Load calculation example (deterministic)",
			func(RunOpts) (*Fig6Result, error) { return Fig6() },
			func(r *Fig6Result) []any { return []any{r.Table()} }),
		entry("fig7", "Work-unit throughput normalization example (deterministic)",
			func(RunOpts) (*Fig7Result, error) { return Fig7() },
			func(r *Fig7Result) []any { return []any{r.Table()} }),
		entry("fig8", "Monitoring interval length sensitivity (20ms/50ms/1s) at WL 14,000",
			Fig8, func(r *Fig8Result) []any { return []any{r.Table()} }),
		entry("fig9-11", "JVM GC case study: JDK 1.5 vs 1.6 at WL 7,000/14,000",
			GCCase, func(r *GCCaseResult) []any { return []any{r.Table(), r.TimelineString()} }),
		entry("fig12-13", "Intel SpeedStep case study: governor on/off at WL 8,000/10,000",
			SpeedStepCase, func(r *SpeedStepCaseResult) []any { return []any{r.Table()} }),
		entry("tableII", "Modeled Xeon P-state table",
			func(RunOpts) (*Table, error) { return TableII(), nil },
			func(t *Table) []any { return []any{t} }),
		entry("ext-scaleout", "Extension: scale out the MySQL tier (the §IV-B/D solution)",
			ScaleOut, func(r *ScaleOutResult) []any { return []any{r.Table()} }),
		entry("ext-normalization", "Ablation: work-unit throughput normalization on/off",
			NormalizationAblation, func(r *NormalizationAblationResult) []any { return []any{r.Table()} }),
		entry("ext-mva", "Baseline: exact MVA (Urgaonkar-style) vs simulation across workloads",
			func(o RunOpts) (*MVACompareResult, error) { return MVACompare(nil, o) },
			func(r *MVACompareResult) []any { return []any{r.Table()} }),
		entry("ext-autointerval", "Future work (§III-D): automatic monitoring-interval selection",
			AutoInterval, func(r *AutoIntervalResult) []any { return []any{r.RenderTable()} }),
		entry("ext-noisyneighbor", "Extension: localize periodic CPU theft by a co-located VM",
			NoisyNeighbor, func(r *NoisyNeighborResult) []any { return []any{r.Table()} }),
		entry("attribution", "Scenario battery × capture faults: top cause verdict vs simulator ground truth",
			Attribution, func(r *AttributionResult) []any { return []any{r} }),
		entry("ext-robustness", "Extension: graceful degradation of detection under capture faults",
			Robustness, func(r *RobustnessResult) []any { return []any{r.Table()} }),
		entry("ext-governor", "Ablation: SpeedStep governor control-period sweep",
			GovernorSweep, func(r *GovernorSweepResult) []any { return []any{r.Table()} }),
	}
	sort.Slice(runners, func(i, j int) bool { return runners[i].ID < runners[j].ID })
	return runners
}

// Find returns the runner with the given ID.
func Find(id string) (Runner, error) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
