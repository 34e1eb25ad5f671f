package metrics

import (
	"fmt"
	"sort"

	"transientbd/internal/simnet"
)

// StepAccumulator integrates a piecewise-constant function of time (e.g.
// the number of concurrent requests in a server, Fig 6 bottom) and yields
// time-weighted averages per interval. Changes may be recorded out of
// order; they are sorted once when the series is computed.
type StepAccumulator struct {
	changes []stepChange
	initial float64
}

type stepChange struct {
	at    simnet.Time
	delta float64
}

// NewStepAccumulator returns an accumulator whose level before the first
// change is initial.
func NewStepAccumulator(initial float64) *StepAccumulator {
	return &StepAccumulator{initial: initial}
}

// Change records a delta to the level at time t (e.g. +1 on request
// arrival, -1 on departure).
func (a *StepAccumulator) Change(t simnet.Time, delta float64) {
	a.changes = append(a.changes, stepChange{at: t, delta: delta})
}

// Average returns an IntervalSeries where each interval holds the
// time-weighted average level over that interval — exactly the paper's
// load definition (§III-A): "the average number of concurrent requests
// over a time interval".
func (a *StepAccumulator) Average(start, end simnet.Time, width simnet.Duration) (*IntervalSeries, error) {
	series, err := NewIntervalSeriesCovering(start, end, width)
	if err != nil {
		return nil, err
	}
	sorted := make([]stepChange, len(a.changes))
	copy(sorted, a.changes)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })

	level := a.initial
	idx := 0
	// Apply all changes strictly before the window start.
	for idx < len(sorted) && sorted[idx].at < start {
		level += sorted[idx].delta
		idx++
	}

	for i := 0; i < series.Len(); i++ {
		ivStart := series.IntervalStart(i)
		ivEnd := ivStart + width
		if ivEnd > end {
			ivEnd = end
		}
		if ivEnd <= ivStart {
			break
		}
		var weighted float64
		cursor := ivStart
		for idx < len(sorted) && sorted[idx].at < ivEnd {
			ch := sorted[idx]
			if ch.at > cursor {
				weighted += level * float64(ch.at-cursor)
				cursor = ch.at
			}
			level += ch.delta
			idx++
		}
		if ivEnd > cursor {
			weighted += level * float64(ivEnd-cursor)
		}
		if err := series.Set(i, weighted/float64(ivEnd-ivStart)); err != nil {
			return nil, fmt.Errorf("metrics: set interval %d: %w", i, err)
		}
	}
	return series, nil
}
