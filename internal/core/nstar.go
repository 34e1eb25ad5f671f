package core

import (
	"errors"
	"fmt"
	"math"

	"transientbd/internal/stats"
)

// Point is one (load, throughput) observation: one monitoring interval's
// pair, the dots of Fig 5(c).
type Point struct {
	Load float64
	TP   float64
}

// CorrelatePoints zips a load series and a throughput series measured over
// the same intervals into points.
func CorrelatePoints(load, tp []float64) ([]Point, error) {
	if len(load) != len(tp) {
		return nil, fmt.Errorf("core: series length mismatch %d vs %d", len(load), len(tp))
	}
	out := make([]Point, len(load))
	for i := range load {
		out[i] = Point{Load: load[i], TP: tp[i]}
	}
	return out, nil
}

// BinPoint is one aggregated bin of the load/throughput curve.
type BinPoint struct {
	// Load is the bin's representative load (upper edge of the load bin,
	// the paper's ld_i).
	Load float64
	// TP is the average throughput of samples in the bin.
	TP float64
	// N is the number of samples aggregated.
	N int
}

// NStarOptions tunes the congestion-point estimator of §III-C.
type NStarOptions struct {
	// Bins is the number k of even load intervals. Default 100. The slope
	// lag and the smallest scanned prefix derive from it.
	Bins int
	// TolFraction is the tolerance as a fraction of the unsaturated slope
	// δ0 (paper: "e.g., 0.2·δ0"). Default 0.2.
	TolFraction float64
}

const (
	// nstarConfidence is the one-sided confidence level of Eq. 2's lower
	// bound: the paper's t(0.95, n0-1).
	nstarConfidence = 0.95
	// curveMinLoad drops intervals with average load below this value
	// from the curve. Near-idle intervals are dominated by boundary
	// slivers — requests resident for a fraction of the interval — whose
	// throughput/load ratio wildly overstates the true service rate.
	curveMinLoad = 0.5
	// minBinSamples merges bins with fewer samples into their successor
	// to keep bin averages meaningful.
	minBinSamples = 2
)

func (o *NStarOptions) applyDefaults() {
	if o.Bins <= 0 {
		o.Bins = 100
	}
	if o.TolFraction <= 0 {
		o.TolFraction = 0.2
	}
}

// NStarResult is the output of congestion-point estimation.
type NStarResult struct {
	// NStar is the congestion point: the minimum load beyond which added
	// load stops adding throughput.
	NStar float64
	// TPMax is the maximum average throughput observed across bins — the
	// Utilization Law ceiling of Fig 5(c).
	TPMax float64
	// Saturated reports whether the estimator actually found a knee; when
	// false the server never congested in the data and NStar is the
	// highest observed load (a lower bound).
	Saturated bool
}

// ErrNoPoints indicates there were no usable samples.
var ErrNoPoints = errors.New("core: no load/throughput points")

// EstimateNStar determines the congestion point N* by the paper's
// statistical intervention analysis (§III-C):
//
//	δ_1 = tp_1/ld_1,   δ_i = (tp_i − tp_{i−1}) / (ld_i − ld_{i−1})   (Eq. 1)
//
// scanning n0 upward until the lower bound of the one-sided confidence
// interval of {δ_1..δ_n0},
//
//	δ̄ − t(conf, n0−1)·s.d.{δ},                                        (Eq. 2)
//
// falls below tol = TolFraction·δ0, at which point N* = ld_{n0}.
func EstimateNStar(points []Point, opts NStarOptions) (NStarResult, error) {
	opts.applyDefaults()
	curve, err := binCurve(points, opts.Bins)
	if err != nil {
		return NStarResult{}, err
	}
	var res NStarResult
	for _, b := range curve {
		if b.TP > res.TPMax {
			res.TPMax = b.TP
		}
	}
	if len(curve) < 2 {
		// One bin: no slope sequence to analyze; the single load level is
		// all we know.
		res.NStar = curve[len(curve)-1].Load
		return res, nil
	}

	// Slope sequence per Eq. 1, generalized to a lag-L baseline. For bins
	// closer than L to the start, the baseline is the origin (an idle
	// server produces no throughput, so the curve passes through (0,0)) —
	// this also generalizes the paper's δ1 = tp1/ld1. The paper's Eq. 1
	// uses consecutive bins (lag 1); with k=100 bins that makes each slope
	// extremely noise-sensitive (the denominator is one bin width), so the
	// baseline widens to k/10 bins.
	lag := max(opts.Bins/10, 1)
	deltas := make([]float64, 0, len(curve))
	for i, b := range curve {
		prevLoad, prevTP := 0.0, 0.0
		if i >= lag {
			prevLoad, prevTP = curve[i-lag].Load, curve[i-lag].TP
		}
		dl := b.Load - prevLoad
		if dl <= 0 {
			continue
		}
		deltas = append(deltas, (b.TP-prevTP)/dl)
	}
	if len(deltas) == 0 {
		res.NStar = curve[len(curve)-1].Load
		return res, nil
	}

	// minScan is the smallest n0 at which Eq. 2 is evaluated; tiny
	// prefixes make the t-interval vacuously wide.
	minScan := max(4, lag)

	// δ0: the characteristic unsaturated slope, taken as the median of the
	// early slopes for robustness against the first bin's width bias.
	early := make([]float64, min(minScan, len(deltas)))
	copy(early, deltas)
	delta0, err := stats.Median(early)
	if err != nil || delta0 <= 0 {
		// Degenerate start; fall back to the mean positive slope.
		var sum float64
		var n int
		for _, d := range deltas {
			if d > 0 {
				sum += d
				n++
			}
		}
		if n == 0 {
			res.NStar = curve[len(curve)-1].Load
			return res, nil
		}
		delta0 = sum / float64(n)
	}
	tol := opts.TolFraction * delta0

	for n0 := minScan; n0 <= len(deltas); n0++ {
		seq := deltas[:n0]
		mean := stats.Mean(seq)
		sd := stats.SampleStdDev(seq)
		tcoef, err := stats.TQuantile(nstarConfidence, float64(n0-1))
		if err != nil {
			return NStarResult{}, fmt.Errorf("core: t quantile: %w", err)
		}
		lower := mean - tcoef*sd
		if lower < tol {
			// Eq. 2 has triggered. Two refinements over taking ld_{n0}
			// verbatim:
			//
			// Persistence: a bin-noise dip can trigger the interval test
			// even though the curve keeps climbing. A real knee keeps the
			// remaining slopes low; if the suffix mean recovers above
			// δ0/2, the trigger was noise — keep scanning.
			rest := deltas[n0:]
			if len(rest) >= 3 {
				if stats.Mean(rest) > 0.5*delta0 {
					continue
				}
			} else {
				// Trigger at the very tail of the curve: too little
				// evidence of a plateau. Report the tail load as a lower
				// bound without declaring saturation.
				res.NStar = curve[len(curve)-1].Load
				return res, nil
			}
			// Placement: the scan detects the knee with a lag (the prefix
			// dilutes slowly), so place N* where the Utilization Law says
			// the linear ramp meets the ceiling — TPmax/δ0 — clamped into
			// the observed range up to the trigger bin.
			nstar := curve[n0-1].Load
			if delta0 > 0 {
				if byLaw := res.TPMax / delta0; byLaw < nstar {
					nstar = byLaw
				}
			}
			if lo := curve[0].Load; nstar < lo {
				nstar = lo
			}
			res.NStar = nstar
			res.Saturated = true
			return res, nil
		}
	}
	// Never saturated: N* is at least the largest observed load.
	res.NStar = curve[len(curve)-1].Load
	return res, nil
}

// binCurve divides [Nmin, Nmax] into k even load intervals and averages
// throughput per bin, merging under-populated bins forward.
func binCurve(points []Point, k int) ([]BinPoint, error) {
	var usable []Point
	for _, p := range points {
		if p.Load > 0 && p.Load >= curveMinLoad &&
			!math.IsNaN(p.Load) && !math.IsInf(p.Load, 0) &&
			!math.IsNaN(p.TP) && !math.IsInf(p.TP, 0) {
			usable = append(usable, p)
		}
	}
	if len(usable) == 0 {
		return nil, ErrNoPoints
	}
	minLoad, maxLoad := usable[0].Load, usable[0].Load
	for _, p := range usable[1:] {
		if p.Load < minLoad {
			minLoad = p.Load
		}
		if p.Load > maxLoad {
			maxLoad = p.Load
		}
	}
	if maxLoad == minLoad {
		var sum float64
		for _, p := range usable {
			sum += p.TP
		}
		return []BinPoint{{Load: maxLoad, TP: sum / float64(len(usable)), N: len(usable)}}, nil
	}
	width := (maxLoad - minLoad) / float64(k)
	sums := make([]float64, k)
	counts := make([]int, k)
	for _, p := range usable {
		idx := int((p.Load - minLoad) / width)
		if idx >= k {
			idx = k - 1
		}
		sums[idx] += p.TP
		counts[idx]++
	}
	var curve []BinPoint
	var carrySum float64
	var carryCount int
	for i := 0; i < k; i++ {
		carrySum += sums[i]
		carryCount += counts[i]
		if carryCount >= minBinSamples {
			curve = append(curve, BinPoint{
				Load: minLoad + width*float64(i+1), // upper edge = ld_i
				TP:   carrySum / float64(carryCount),
				N:    carryCount,
			})
			carrySum, carryCount = 0, 0
		}
	}
	if carryCount > 0 && len(curve) > 0 {
		// Fold the trailing remainder into the last bin.
		last := &curve[len(curve)-1]
		total := float64(last.N + carryCount)
		last.TP = (last.TP*float64(last.N) + carrySum) / total
		last.N += carryCount
	} else if carryCount > 0 {
		curve = append(curve, BinPoint{Load: maxLoad, TP: carrySum / float64(carryCount), N: carryCount})
	}
	if len(curve) == 0 {
		return nil, ErrNoPoints
	}
	return curve, nil
}
