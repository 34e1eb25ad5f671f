package experiments

import (
	"fmt"

	"transientbd/internal/stats"
	"transientbd/internal/workload"
)

// Fig2Row is one workload point of Figure 2(a)/(b).
type Fig2Row struct {
	Users          int
	PagesPerSecond float64
	MeanRTSeconds  float64
	FracOver2s     float64
}

// Fig2Result reproduces Figure 2: throughput and response time versus
// workload under the SpeedStep-afflicted configuration of §II-B, plus the
// response-time histogram at WL 8,000 (Fig 2c).
type Fig2Result struct {
	Rows []Fig2Row
	// KneeUsers is the workload at which throughput stops growing
	// (>  within 5% of the maximum).
	KneeUsers int
	// Histogram is the Fig 2c end-to-end RT distribution at WL 8,000.
	Histogram *stats.Histogram
	// HistogramModes are the detected modes (bucket indices) of the
	// distribution; the paper reports a bi-modal shape.
	HistogramModes []int
}

// DefaultFig2Workloads is the paper's WL sweep.
func DefaultFig2Workloads() []int {
	wls := make([]int, 0, 16)
	for wl := 1000; wl <= 16000; wl += 1000 {
		wls = append(wls, wl)
	}
	return wls
}

// Fig2 sweeps the workload with SpeedStep enabled on the MySQL hosts and
// bursty clients — the §II-B motivating configuration.
func Fig2(workloads []int, opts RunOpts) (*Fig2Result, error) {
	if len(workloads) == 0 {
		workloads = DefaultFig2Workloads()
	}
	out := &Fig2Result{}
	var maxTP float64
	for _, wl := range workloads {
		cfg := testbed(wl, opts)
		cfg.DBSpeedStep = true
		_, res, err := simulate(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig2 wl %d: %w", wl, err)
		}
		rts := workload.ResponseTimesSeconds(res.Samples)
		row := Fig2Row{
			Users:          wl,
			PagesPerSecond: res.PagesPerSecond(),
			MeanRTSeconds:  stats.Mean(rts),
			FracOver2s:     stats.FractionAbove(rts, 2.0),
		}
		out.Rows = append(out.Rows, row)
		if row.PagesPerSecond > maxTP {
			maxTP = row.PagesPerSecond
		}
		if wl == 8000 {
			h := stats.NewResponseTimeHistogram()
			for _, rt := range rts {
				h.Observe(rt)
			}
			out.Histogram = h
			out.HistogramModes = h.Modes(5, 0.5)
		}
	}
	for _, row := range out.Rows {
		if row.PagesPerSecond >= 0.95*maxTP {
			out.KneeUsers = row.Users
			break
		}
	}
	return out, nil
}

// Table renders Fig 2(a)/(b) as the paper's series.
func (r *Fig2Result) Table() *Table {
	t := &Table{
		Title:  "Figure 2(a)/(b): throughput, mean RT and %RT>2s vs workload (SpeedStep ON)",
		Header: []string{"WL (users)", "Throughput (pages/s)", "Mean RT (s)", "% RT > 2s"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Users, row.PagesPerSecond,
			fmt.Sprintf("%.3f", row.MeanRTSeconds),
			fmt.Sprintf("%.2f%%", 100*row.FracOver2s))
	}
	t.Rows = append(t.Rows, []string{fmt.Sprintf("knee ≈ WL %d", r.KneeUsers), "", "", ""})
	return t
}

// HistogramString renders Fig 2(c).
func (r *Fig2Result) HistogramString() string {
	if r.Histogram == nil {
		return "(no WL 8000 run in sweep)"
	}
	return "Figure 2(c): end-to-end RT distribution at WL 8,000 (log-scale bars)\n" +
		r.Histogram.String()
}
