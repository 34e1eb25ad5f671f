// Package metrics provides time-series containers used throughout the
// reproduction: fixed-width interval series (the paper's 20ms/50ms/1s
// monitoring windows), a step-function accumulator for time-weighted
// averages (the load definition of §III-A), and per-interval counters
// (the throughput definition of §III-B).
//
// # Concurrency
//
// IntervalSeries and StepAccumulator are plain mutable containers with no
// internal locking: each value is safe for concurrent reads once fully
// built, but must have a single writer while under construction. The
// parallel analysis pipeline (internal/core) respects this by giving every
// worker its own series and accumulators.
package metrics

import (
	"errors"
	"fmt"

	"transientbd/internal/simnet"
)

// ErrRange indicates a timestamp outside the series' coverage.
var ErrRange = errors.New("metrics: timestamp out of series range")

// IntervalSeries holds one float64 value per fixed-width time interval.
// Interval i covers [start + i*width, start + (i+1)*width).
type IntervalSeries struct {
	start  simnet.Time
	width  simnet.Duration
	values []float64
}

// NewIntervalSeries creates a series of n intervals of the given width
// starting at start. It panics only on programmer error (non-positive
// width or n), since these are static configuration values.
func NewIntervalSeries(start simnet.Time, width simnet.Duration, n int) (*IntervalSeries, error) {
	if width <= 0 {
		return nil, fmt.Errorf("metrics: interval width must be positive, got %v", width)
	}
	if n <= 0 {
		return nil, fmt.Errorf("metrics: interval count must be positive, got %d", n)
	}
	return &IntervalSeries{start: start, width: width, values: make([]float64, n)}, nil
}

// AdoptIntervalSeries wraps values, one per width-wide interval from
// start, as a series without copying: the caller hands the slice over and
// must not write to it afterwards. It is how a producer that already built
// its per-interval values (core.Online.Snapshot) publishes them in the
// shape every consumer reads.
func AdoptIntervalSeries(start simnet.Time, width simnet.Duration, values []float64) *IntervalSeries {
	return &IntervalSeries{start: start, width: width, values: values}
}

// NewIntervalSeriesCovering creates a series of intervals of the given
// width covering [start, end). The last interval may extend past end.
func NewIntervalSeriesCovering(start, end simnet.Time, width simnet.Duration) (*IntervalSeries, error) {
	n, err := intervalsCovering(start, end, width)
	if err != nil {
		return nil, err
	}
	return NewIntervalSeries(start, width, n)
}

// intervalsCovering is the number of width-wide intervals needed to cover
// [start, end), the last one possibly extending past end.
func intervalsCovering(start, end simnet.Time, width simnet.Duration) (int, error) {
	if end <= start {
		return 0, fmt.Errorf("metrics: end %v not after start %v", end, start)
	}
	if width <= 0 {
		return 0, fmt.Errorf("metrics: interval width must be positive, got %v", width)
	}
	span := end - start
	n := int(span / width)
	if span%width != 0 {
		n++
	}
	return n, nil
}

// Len returns the number of intervals.
func (s *IntervalSeries) Len() int { return len(s.values) }

// Width returns the interval width.
func (s *IntervalSeries) Width() simnet.Duration { return s.width }

// Start returns the start time of the first interval.
func (s *IntervalSeries) Start() simnet.Time { return s.start }

// End returns the end time of the last interval.
func (s *IntervalSeries) End() simnet.Time {
	return s.start + simnet.Time(len(s.values))*s.width
}

// Index returns the interval index containing t, or an error if t is out
// of range.
func (s *IntervalSeries) Index(t simnet.Time) (int, error) {
	i, ok := s.Lookup(t)
	if !ok {
		return 0, fmt.Errorf("%w: %v not in [%v,%v)", ErrRange, t, s.start, s.End())
	}
	return i, nil
}

// Lookup returns the interval index containing t and whether t is in
// range: Index without building an error for callers that skip
// out-of-range samples.
func (s *IntervalSeries) Lookup(t simnet.Time) (int, bool) {
	if t < s.start || t >= s.End() {
		return 0, false
	}
	return int((t - s.start) / s.width), true
}

// IntervalStart returns the start time of interval i.
func (s *IntervalSeries) IntervalStart(i int) simnet.Time {
	return s.start + simnet.Time(i)*s.width
}

// Value returns the value of interval i (0 if out of range).
func (s *IntervalSeries) Value(i int) float64 {
	if i < 0 || i >= len(s.values) {
		return 0
	}
	return s.values[i]
}

// Set assigns interval i.
func (s *IntervalSeries) Set(i int, v float64) error {
	if i < 0 || i >= len(s.values) {
		return fmt.Errorf("%w: index %d", ErrRange, i)
	}
	s.values[i] = v
	return nil
}

// Add adds v to interval i. Out-of-range indices are ignored so hot paths
// need no branching at call sites; use Index first when range errors
// matter.
func (s *IntervalSeries) Add(i int, v float64) {
	if i < 0 || i >= len(s.values) {
		return
	}
	s.values[i] += v
}

// AddAt adds v to the interval containing t; samples outside the series
// range are dropped (e.g. departures after the measurement window).
func (s *IntervalSeries) AddAt(t simnet.Time, v float64) {
	if i, ok := s.Lookup(t); ok {
		s.values[i] += v
	}
}

// Values returns a copy of all interval values.
func (s *IntervalSeries) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Scale multiplies every interval by f (e.g. count → rate conversion).
func (s *IntervalSeries) Scale(f float64) {
	for i := range s.values {
		s.values[i] *= f
	}
}

// ToPerSecond converts the series in place from per-interval counts into
// rates, dividing each value by the interval width in seconds.
func (s *IntervalSeries) ToPerSecond() *IntervalSeries {
	secs := float64(s.width) / float64(simnet.Second)
	for i := range s.values {
		s.values[i] /= secs
	}
	return s
}

// Slice returns values for intervals whose start time lies in [from, to).
func (s *IntervalSeries) Slice(from, to simnet.Time) []float64 {
	var out []float64
	for i := range s.values {
		st := s.IntervalStart(i)
		if st >= from && st < to {
			out = append(out, s.values[i])
		}
	}
	return out
}
