package metrics

import "transientbd/internal/simnet"

// LoadAccumulator integrates visit residence directly into fixed-width
// interval buckets — the incremental form of the paper's load metric
// (§III-A). It replaces the StepAccumulator's record-everything-then-sort
// sweep on the hot analysis path: each span is distributed over the
// intervals it overlaps at Add time, so computing the series is O(V·k + I)
// (k = intervals a span touches, usually 1–2) with no sort and no
// per-change buffer.
//
// Equivalence with the sweep: both compute, per interval, the exact sum of
// resident time contributed by each span, as integer microsecond counts.
// Integers of this magnitude are exact in float64, so addition order is
// irrelevant and the two implementations agree bit-for-bit — including on
// zero-length spans (no contribution), spans crossing the window edges
// (clamped), and inverted spans (depart before arrive contributes negative
// occupancy over [depart, arrive), matching the sweep's −1-before-+1
// ordering). The property test in internal/core pins this down against the
// StepAccumulator oracle.
//
// LoadAccumulator is a plain mutable container: single writer while under
// construction, safe for concurrent reads once built (see the package
// comment).
type LoadAccumulator struct {
	start, end simnet.Time
	width      simnet.Duration
	// weighted holds per-interval resident time (level-microseconds).
	weighted []float64
}

// NewLoadAccumulator returns an accumulator over the window [start, end)
// at the given interval width. The last interval may extend past end; as
// with the sweep, its average is taken over the clipped span only.
func NewLoadAccumulator(start, end simnet.Time, width simnet.Duration) (*LoadAccumulator, error) {
	n, err := intervalsCovering(start, end, width)
	if err != nil {
		return nil, err
	}
	return &LoadAccumulator{start: start, end: end, width: width, weighted: make([]float64, n)}, nil
}

// Add folds one visit's residence [arrive, depart) into the buckets it
// overlaps. Spans are clamped to the window; an inverted span contributes
// negative occupancy over [depart, arrive), exactly as the step sweep
// integrates a −1 change ordered before its +1.
func (a *LoadAccumulator) Add(arrive, depart simnet.Time) {
	lo, hi, sign := arrive, depart, 1.0
	if hi < lo {
		lo, hi, sign = depart, arrive, -1.0
	}
	if lo < a.start {
		lo = a.start
	}
	if hi > a.end {
		hi = a.end
	}
	if hi <= lo {
		return
	}
	first := int((lo - a.start) / a.width)
	last := int((hi - 1 - a.start) / a.width)
	for i := first; i <= last; i++ {
		s := a.start + simnet.Time(i)*a.width
		e := s + a.width
		segLo, segHi := lo, hi
		if s > segLo {
			segLo = s
		}
		if e < segHi {
			segHi = e
		}
		if segHi > segLo {
			a.weighted[i] += sign * float64(segHi-segLo)
		}
	}
}

// Series returns the time-weighted average level per interval — the same
// numbers the StepAccumulator sweep yields for the same spans. The
// accumulator remains usable (more Adds compose into a later Series).
func (a *LoadAccumulator) Series() (*IntervalSeries, error) {
	series, err := NewIntervalSeries(a.start, a.width, len(a.weighted))
	if err != nil {
		return nil, err
	}
	for i, w := range a.weighted {
		ivStart := a.start + simnet.Time(i)*a.width
		ivEnd := ivStart + a.width
		if ivEnd > a.end {
			ivEnd = a.end
		}
		if ivEnd <= ivStart {
			break
		}
		series.values[i] = w / float64(ivEnd-ivStart)
	}
	return series, nil
}
