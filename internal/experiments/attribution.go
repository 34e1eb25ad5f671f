package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// AttributionRow is one scenario × capture-degradation cell: the
// ground-truth cause the simulator injected, the attribution engine's
// top-ranked verdict from the (possibly degraded) capture, and whether
// they agree.
type AttributionRow struct {
	// Scenario is the battery scenario name (ntier.ScenarioNames).
	Scenario string
	// Condition labels the capture degradation ("clean", "5% loss", ...).
	Condition string
	// TruthKind and TruthServers are the injected ground truth.
	TruthKind    ntier.CauseKind
	TruthServers []string
	// TopKind, TopServer, TopConfidence, TopScore describe the
	// top-ranked verdict.
	TopKind       cause.Kind
	TopServer     string
	TopConfidence float64
	TopScore      float64
	// Match reports kind AND server agreement with ground truth.
	Match bool
	// Coverage is the surviving fraction of the clean capture's visits.
	Coverage float64
}

// AttributionResult is the scenario-battery × fault-injection matrix.
type AttributionResult struct {
	Rows []AttributionRow
}

// attributionConditions returns the capture degradations every scenario
// is re-analyzed under. The "clean", "5% loss" and "skew" conditions are
// the stated tolerance: the top verdict must match ground truth there.
func attributionConditions(seed int64, windowStart, windowEnd simnet.Time) []struct {
	label string
	spec  *ntier.FaultSpec
} {
	trunc := windowStart + (windowEnd-windowStart)*4/5
	return []struct {
		label string
		spec  *ntier.FaultSpec
	}{
		{"clean", nil},
		{"5% loss", &ntier.FaultSpec{Seed: seed + 1, LossRate: 0.05}},
		{"skew mysql-1 -5ms", &ntier.FaultSpec{
			SkewByServer: map[string]simnet.Duration{"mysql-1": -5 * simnet.Millisecond},
		}},
		{"5% duplication", &ntier.FaultSpec{Seed: seed + 2, DupRate: 0.05}},
		{"truncate at 80%", &ntier.FaultSpec{TruncateAt: trunc}},
	}
}

// Attribution runs every battery scenario in turn through
// attributePreset.
func Attribution(opts RunOpts) (*AttributionResult, error) {
	out := &AttributionResult{}
	for _, name := range ntier.ScenarioNames() {
		rows, _, err := attributePreset(name, opts)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, rows...)
	}
	return out, nil
}

// attributePreset runs one battery scenario, degrades its wire capture
// with ntier.InjectFaults, re-analyzes through the lenient pipeline, and
// checks the attribution engine's top verdict against the simulator's
// ground-truth label: one row per capture condition. It also returns the
// run, whose visits other engines can be graded on.
func attributePreset(name string, opts RunOpts) ([]AttributionRow, *ntier.Result, error) {
	cfg, err := ntier.ScenarioPreset(name, opts.Seed, opts.duration(), opts.ramp())
	if err != nil {
		return nil, nil, fmt.Errorf("attribution: %w", err)
	}
	_, res, err := simulate(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("attribution %s: %w", name, err)
	}
	truthKind := ntier.ScenarioCause(name)
	truthServers := truthServersFor(res, truthKind)
	if len(truthServers) == 0 {
		return nil, nil, fmt.Errorf("attribution %s: no ground-truth record for %s", name, truthKind)
	}
	w := core.Window{Start: res.WindowStart, End: res.WindowEnd}

	var rows []AttributionRow
	baseVisits := 0
	for _, c := range attributionConditions(opts.Seed, res.WindowStart, res.WindowEnd) {
		msgs := res.Messages
		if c.spec != nil {
			msgs, _ = ntier.InjectFaults(msgs, *c.spec)
		}
		verdicts, visits, _, err := attributeCapture(msgs, w)
		if err != nil {
			return nil, nil, fmt.Errorf("attribution %s (%s): %w", name, c.label, err)
		}
		if c.spec == nil {
			baseVisits = visits
		}
		row := AttributionRow{
			Scenario:     name,
			Condition:    c.label,
			TruthKind:    truthKind,
			TruthServers: truthServers,
		}
		if baseVisits > 0 {
			row.Coverage = float64(visits) / float64(baseVisits)
		}
		if len(verdicts) > 0 {
			top := verdicts[0]
			row.TopKind = top.Kind
			row.TopServer = top.Server
			row.TopConfidence = top.Confidence
			row.TopScore = top.Score
			row.Match = string(top.Kind) == string(truthKind) && contains(truthServers, top.Server)
		}
		rows = append(rows, row)
	}
	return rows, res, nil
}

// attributeCapture runs the lenient analysis pipeline over a (possibly
// degraded) wire capture, the way tbdetect -wire -lenient does, and
// returns the ranked cause verdicts, the number of visits assembled and
// the number of hops quarantined.
func attributeCapture(msgs []trace.Message, w core.Window) ([]cause.Verdict, int, int, error) {
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
	return cause.AttributeAnalyses(sysA.Ranked(), cause.Options{Downstream: trace.CallGraph(repaired)}), len(visits), arep.Quarantined(), nil
}

// truthServersFor merges the server lists of every ground-truth record
// with the given cause (pool exhaustion emits one record per DB host).
func truthServersFor(res *ntier.Result, kind ntier.CauseKind) []string {
	var servers []string
	for _, gt := range res.GroundTruth {
		if gt.Cause != kind {
			continue
		}
		for _, s := range gt.Servers {
			if !contains(servers, s) {
				servers = append(servers, s)
			}
		}
	}
	return servers
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// String renders the matrix.
func (r *AttributionResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Root-cause attribution vs. simulator ground truth")
	fmt.Fprintln(&b, "=================================================")
	fmt.Fprintln(&b)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tcondition\ttruth\ttop verdict\tat\tconf\tcoverage\tmatch")
	for _, row := range r.Rows {
		match := "OK"
		if !row.Match {
			match = "MISS"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.2f\t%.0f%%\t%s\n",
			row.Scenario, row.Condition, row.TruthKind,
			row.TopKind, row.TopServer, row.TopConfidence, 100*row.Coverage, match)
	}
	tw.Flush()
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "Tolerance: the top-ranked verdict must match the injected ground")
	fmt.Fprintln(&b, "truth (cause kind AND server) for the clean, 5% loss, and clock-skew")
	fmt.Fprintln(&b, "conditions of every scenario. Duplication and truncation rows are")
	fmt.Fprintln(&b, "reported for observability; truncation shortens the window and may")
	fmt.Fprintln(&b, "legitimately weaken periodic fingerprints.")
	b.WriteString(strings.Repeat("-", 60))
	return b.String()
}
