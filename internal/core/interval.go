package core

import (
	"fmt"

	"transientbd/internal/simnet"
	"transientbd/internal/stats"
	"transientbd/internal/trace"
)

// The paper leaves automatic selection of the monitoring interval length
// as future work (§III-D): "a proper length should be small enough to
// capture the short-term congestions of a server" yet not so small that
// normalization errors blur the main sequence curve. This file implements
// that selection.
//
// The score balances the two §III-D failure modes explicitly:
//
//   - Curve fidelity: Pearson correlation between load and normalized
//     throughput over the unsaturated region. Too-short intervals blur
//     the main sequence curve (Fig 8a) and this correlation drops.
//   - Transient resolution: the fraction of the finest-interval peak load
//     still visible. Too-long intervals average transient spikes away
//     (Fig 8c) and this ratio drops.
//
// Both terms are in [0,1]; their product favors intervals that keep the
// curve clean *and* the transients visible.

// IntervalCandidate is one evaluated interval length.
type IntervalCandidate struct {
	Interval simnet.Duration
	// Fidelity is the below-knee load/throughput correlation.
	Fidelity float64
	// Resolution is this interval's peak load over the finest interval's
	// peak load.
	Resolution float64
	// Score = Fidelity × Resolution.
	Score float64
}

// DefaultIntervalCandidates spans the paper's Fig 8 range.
func DefaultIntervalCandidates() []simnet.Duration {
	return []simnet.Duration{
		10 * simnet.Millisecond,
		20 * simnet.Millisecond,
		50 * simnet.Millisecond,
		100 * simnet.Millisecond,
		200 * simnet.Millisecond,
		500 * simnet.Millisecond,
		simnet.Second,
	}
}

// ChooseInterval evaluates the candidate interval lengths over one
// server's visits and returns the best one with the full scoring table.
// A nil candidate list uses DefaultIntervalCandidates.
func ChooseInterval(visits []trace.Visit, w Window, candidates []simnet.Duration) (simnet.Duration, []IntervalCandidate, error) {
	if len(visits) == 0 {
		return 0, nil, ErrNoVisits
	}
	if len(candidates) == 0 {
		candidates = DefaultIntervalCandidates()
	}
	finest := candidates[0]
	for _, c := range candidates {
		if c < finest {
			finest = c
		}
	}
	finestLoad, err := LoadSeries(visits, w, finest)
	if err != nil {
		return 0, nil, err
	}
	finestPeak := 0.0
	for _, l := range finestLoad.Values() {
		if l > finestPeak {
			finestPeak = l
		}
	}
	if finestPeak <= 0 {
		return 0, nil, fmt.Errorf("core: no load observed in window")
	}

	svc, err := EstimateServiceTimes(visits, 10)
	if err != nil {
		return 0, nil, err
	}
	unit := WorkUnit(svc)

	var table []IntervalCandidate
	for _, interval := range candidates {
		if interval <= 0 || interval > w.Span() {
			continue
		}
		load, err := LoadSeries(visits, w, interval)
		if err != nil {
			return 0, nil, err
		}
		tp, err := NormalizedThroughputSeries(visits, svc, unit, w, interval)
		if err != nil {
			return 0, nil, err
		}
		pts, err := CorrelatePoints(load.Values(), tp.Values())
		if err != nil {
			return 0, nil, err
		}
		nstar, err := EstimateNStar(pts, NStarOptions{})
		if err != nil {
			// Not enough usable points at this interval; score zero.
			table = append(table, IntervalCandidate{Interval: interval})
			continue
		}
		var loads, tps []float64
		peak := 0.0
		for i, l := range load.Values() {
			if l > peak {
				peak = l
			}
			if l > 0.5 && l <= nstar.NStar {
				loads = append(loads, l)
				tps = append(tps, tp.Value(i))
			}
		}
		fidelity := stats.PearsonR(loads, tps)
		if fidelity < 0 {
			fidelity = 0
		}
		resolution := peak / finestPeak
		if resolution > 1 {
			resolution = 1
		}
		table = append(table, IntervalCandidate{
			Interval:   interval,
			Fidelity:   fidelity,
			Resolution: resolution,
			Score:      fidelity * resolution,
		})
	}
	if len(table) == 0 {
		return 0, nil, fmt.Errorf("core: no usable interval candidates")
	}
	best := table[0]
	for _, c := range table[1:] {
		if c.Score > best.Score {
			best = c
		}
	}
	return best.Interval, table, nil
}
