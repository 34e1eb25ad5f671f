package experiments

import (
	"fmt"
	"sort"

	"transientbd/internal/core"
	"transientbd/internal/cpu"
	"transientbd/internal/simnet"
)

// SpeedStepRun is the MySQL-tier analysis at one workload under one
// governor setting.
type SpeedStepRun struct {
	Users     int
	SpeedStep bool
	Analysis  *core.Analysis
	// CongestedTPTrends are the distinct throughput levels observed in
	// congested intervals. With SpeedStep the tier saturates at different
	// frequencies, so multiple trends appear (the paper finds three at WL
	// 10,000: ≈3,700 / 5,000 / 7,000 req/s); pinned at P0 there is one.
	CongestedTPTrends []float64
	// Transitions counts DB P-state changes over the run.
	Transitions uint64
	// Residency is the fraction of time per P-state (averaged across DB
	// hosts).
	Residency []float64
	// ExcerptLoad/TP are a 10-second timeline (Fig 12c / 13c).
	ExcerptLoad, ExcerptTP []float64
}

// SpeedStepCaseResult reproduces §IV-C/D, Figures 12 and 13.
type SpeedStepCaseResult struct {
	// Runs: [SpeedStep ON: WL 8000, WL 10000], [OFF: WL 8000, WL 10000].
	On8k, On10k, Off8k, Off10k *SpeedStepRun
}

// trendLevels finds the distinct throughput plateaus among congested
// intervals by density: values are histogrammed (binFrac of the maximum
// per bin, lightly smoothed) and each local maximum separated by a real
// dip is one trend. A congested server pinned at one frequency piles up
// samples at that frequency's ceiling; transitions in mid-interval
// scatter a few samples between plateaus, which the dip criterion
// ignores.
func trendLevels(tps []float64, binFrac float64, minCount int64) []float64 {
	if len(tps) < 4 {
		return nil
	}
	sorted := make([]float64, len(tps))
	copy(sorted, tps)
	sort.Float64s(sorted)
	maxTP := sorted[len(sorted)-1]
	if maxTP <= 0 {
		return nil
	}
	width := binFrac * maxTP
	nbins := int(maxTP/width) + 2
	counts := make([]float64, nbins)
	for _, v := range sorted {
		idx := int(v / width)
		if idx >= nbins {
			idx = nbins - 1
		}
		counts[idx]++
	}
	// 3-bin moving average to suppress single-bin noise.
	smooth := make([]float64, nbins)
	for i := range counts {
		sum, n := counts[i], 1.0
		if i > 0 {
			sum += counts[i-1]
			n++
		}
		if i < nbins-1 {
			sum += counts[i+1]
			n++
		}
		smooth[i] = sum / n
	}
	// Local maxima with a dip to <=60% of the smaller peak between them.
	var levels []float64
	lastPeak := -1
	for i := 0; i < nbins; i++ {
		c := smooth[i]
		if c < float64(minCount) {
			continue
		}
		left, right := -1.0, -1.0
		if i > 0 {
			left = smooth[i-1]
		}
		if i < nbins-1 {
			right = smooth[i+1]
		}
		if c < left || c < right {
			continue
		}
		center := (float64(i) + 0.5) * width
		if lastPeak >= 0 {
			minBetween := c
			for j := lastPeak + 1; j < i; j++ {
				if smooth[j] < minBetween {
					minBetween = smooth[j]
				}
			}
			smaller := smooth[lastPeak]
			if c < smaller {
				smaller = c
			}
			if minBetween > 0.6*smaller {
				// Same plateau; keep the taller representative.
				if c > smooth[lastPeak] {
					levels[len(levels)-1] = center
					lastPeak = i
				}
				continue
			}
		}
		levels = append(levels, center)
		lastPeak = i
	}
	return levels
}

func speedStepRun(users int, speedStep bool, opts RunOpts) (*SpeedStepRun, error) {
	cfg := testbed(users, opts)
	cfg.DBSpeedStep = speedStep
	sys, res, err := simulate(cfg)
	if err != nil {
		return nil, fmt.Errorf("speedstep wl %d (enabled=%v): %w", users, speedStep, err)
	}
	a, err := analyzeInstance(res, "mysql-1", 50*simnet.Millisecond)
	if err != nil {
		return nil, err
	}
	run := &SpeedStepRun{Users: users, SpeedStep: speedStep, Analysis: a}

	// Gather congested-interval throughputs for trend clustering. Skip
	// near-zero values (freeze slivers) which are not frequency plateaus.
	var congestedTP []float64
	for i, st := range a.States {
		if st == core.StateCongested {
			if tp := a.TP.Value(i); tp > 0.15*a.NStar.TPMax {
				congestedTP = append(congestedTP, tp)
			}
		}
	}
	run.CongestedTPTrends = trendLevels(congestedTP, 0.03, int64(len(congestedTP)/40+2))

	var residency []float64
	for _, db := range sys.DBServers() {
		run.Transitions += db.Processor().Transitions()
		r := db.Processor().StateResidency()
		if residency == nil {
			residency = make([]float64, len(r))
		}
		for i, v := range r {
			residency[i] += v / float64(len(sys.DBServers()))
		}
	}
	run.Residency = residency

	exStart := res.WindowStart + 5*simnet.Second
	exEnd := exStart + 10*simnet.Second
	if exEnd > res.WindowEnd {
		exStart, exEnd = res.WindowStart, res.WindowEnd
	}
	run.ExcerptLoad = a.Load.Slice(exStart, exEnd)
	run.ExcerptTP = a.TP.Slice(exStart, exEnd)
	return run, nil
}

// SpeedStepCase runs the four experiments of §IV-C/D.
func SpeedStepCase(opts RunOpts) (*SpeedStepCaseResult, error) {
	out := &SpeedStepCaseResult{}
	var err error
	if out.On8k, err = speedStepRun(8000, true, opts); err != nil {
		return nil, err
	}
	if out.On10k, err = speedStepRun(10000, true, opts); err != nil {
		return nil, err
	}
	if out.Off8k, err = speedStepRun(8000, false, opts); err != nil {
		return nil, err
	}
	if out.Off10k, err = speedStepRun(10000, false, opts); err != nil {
		return nil, err
	}
	return out, nil
}

// Table renders the Fig 12 vs Fig 13 comparison.
func (r *SpeedStepCaseResult) Table() *Table {
	t := &Table{
		Title:  "Figures 12-13: Intel SpeedStep case study (MySQL tier, 50ms analysis)",
		Header: []string{"Run", "Congested fraction", "POIs", "TP trends (units/s)", "P-state transitions"},
	}
	row := func(name string, run *SpeedStepRun) {
		trends := ""
		for i, lv := range run.CongestedTPTrends {
			if i > 0 {
				trends += " / "
			}
			trends += fmt.Sprintf("%.0f", lv)
		}
		if trends == "" {
			trends = "-"
		}
		t.AddRow(name,
			fmt.Sprintf("%.3f", run.Analysis.CongestedFraction),
			len(run.Analysis.POIs),
			trends,
			run.Transitions)
	}
	row("Fig12a ON  WL 8,000", r.On8k)
	row("Fig12b ON  WL 10,000", r.On10k)
	row("Fig13a OFF WL 8,000", r.Off8k)
	row("Fig13b OFF WL 10,000", r.Off10k)
	return t
}

// TableII renders the paper's P-state table from the cpu package.
func TableII() *Table {
	t := &Table{
		Title:  "Table II: partial P-states supported by the modeled Xeon CPU",
		Header: []string{"P-state", "CPU clock (MHz)"},
	}
	for _, ps := range cpu.TableII() {
		t.AddRow(ps.Name, ps.MHz)
	}
	return t
}
