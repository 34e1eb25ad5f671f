package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// spreadRow is one metric of one workload over the repeated runs.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	Fits     bool      `json:"fits"`
}

// runRepeat runs the end-to-end set n times the way the driver does —
// one full run, set-up included, per workload and repetition, seeds
// seed..seed+n-1 — alternating the workload order between repetitions,
// and holds each metric's spread (the distance between its quartiles as
// a share of its median) against the bound BENCHMARK.json declares.
// setup_s is reported but, as in the driver, not held to its bound here.
func runRepeat(d dirs, spec *benchmarkSpec, workloads []string, seed int64, seconds float64, n int) error {
	if n < 2 {
		return fmt.Errorf("-repeat %d: quartiles need at least two runs", n)
	}
	values := map[string]map[string][]float64{}
	incorrect := 0
	for rep := 0; rep < n; rep++ {
		order := append([]string(nil), workloads...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := runOne(d, spec, w, seed+int64(rep), seconds, false)
			if err != nil {
				return fmt.Errorf("%s, seed %d: %w", w, seed+int64(rep), err)
			}
			if !res.Correct {
				incorrect++
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "repeat %d/%d %s seed %d: correct=%v failed=%d/%d\n", rep+1, n, w, seed+int64(rep), res.Correct, res.Failed, res.Attempted)
		}
	}
	var rows []spreadRow
	misfits := 0
	fmt.Printf("%-13s %-24s %14s %14s %14s %8s %6s\n", "WORKLOAD", "METRIC", "MEDIAN", "Q1", "Q3", "SPREAD", "BOUND")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			vs := values[w][m.Name]
			q1, q3 := quartiles(vs)
			row := spreadRow{Workload: w, Metric: m.Name, Unit: m.Unit, Values: vs, Median: median(vs), Q1: q1, Q3: q3, Bound: m.Bound}
			row.Spread = (q3 - q1) / row.Median
			row.Fits = row.Spread <= m.Bound
			mark := ""
			if !row.Fits && m.Name != mSetup {
				misfits++
				mark = "  EXCEEDS BOUND"
			}
			fmt.Printf("%-13s %-24s %14.4f %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w, m.Name, row.Median, q1, q3, 100*row.Spread, 100*m.Bound, mark)
			rows = append(rows, row)
		}
	}
	err := writeJSON(filepath.Join(d.out, "repeat.json"), struct {
		Env     envInfo     `json:"env"`
		Repeats int         `json:"repeats"`
		Rows    []spreadRow `json:"rows"`
	}{gatherEnv(d, seed, seconds), n, rows})
	if err != nil {
		return err
	}
	if misfits > 0 || incorrect > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds, %d runs had failed ops", misfits, incorrect)
	}
	return nil
}
