package core

import (
	"fmt"

	"transientbd/internal/metrics"
	"transientbd/internal/simnet"
	"transientbd/internal/stats"
	"transientbd/internal/trace"
)

// ServiceTimes maps request class → approximate queue-free service time at
// one server. The paper obtains these from intra-node delays measured
// under low load (§III-B, "Service time approximation").
type ServiceTimes map[string]simnet.Duration

// EstimateServiceTimes approximates per-class service times from a visit
// set. For each class it takes a low percentile (default 10) of the
// intra-node delays — residence minus downstream wait — which masks out
// queueing the same way the paper's low-workload calibration pass does:
// the fastest completions of a class are the (nearly) queue-free ones.
//
// percentile outside (0,100] falls back to 10.
func EstimateServiceTimes(visits []trace.Visit, percentile float64) (ServiceTimes, error) {
	if len(visits) == 0 {
		return nil, ErrNoVisits
	}
	if percentile <= 0 || percentile > 100 {
		percentile = 10
	}
	byClass := make(map[string][]float64)
	for _, v := range visits {
		byClass[v.Class] = append(byClass[v.Class], float64(v.IntraNodeDelay()))
	}
	out := make(ServiceTimes, len(byClass))
	for class, delays := range byClass {
		p, err := stats.Percentile(delays, percentile)
		if err != nil {
			return nil, fmt.Errorf("core: class %q: %w", class, err)
		}
		if p < 1 {
			p = 1 // at least one microsecond; zero breaks work-unit math
		}
		out[class] = simnet.Duration(p)
	}
	return out, nil
}

// WorkUnit returns the work-unit size for a set of service times: the
// greatest common divisor of the estimates after quantizing to a 100 µs
// grid (measured service times are never exact; the paper's example uses a
// 10 ms unit for 30 ms and 10 ms requests). The result is never below the
// quantum.
func WorkUnit(svc ServiceTimes) simnet.Duration {
	const quantum = 100 * simnet.Microsecond
	g := simnet.Duration(0)
	for _, d := range svc {
		q := (d + quantum/2) / quantum // round to grid
		if q < 1 {
			q = 1
		}
		g = gcd(g, q*quantum)
	}
	if g <= 0 {
		return quantum
	}
	return g
}

func gcd(a, b simnet.Duration) simnet.Duration {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

// Units returns how many work units a request of the given class
// transforms into (§III-B: "requests with a longer service time transform
// into a greater number of work units"). Unknown classes count as one
// unit.
func (s ServiceTimes) Units(class string, unit simnet.Duration) float64 {
	if unit <= 0 {
		return 1
	}
	d, ok := s[class]
	if !ok || d <= 0 {
		return 1
	}
	u := float64(d) / float64(unit)
	if u < 1 {
		return 1
	}
	return u
}

// ThroughputSeries counts completed requests per interval and converts to
// a rate (requests/second) — the "straightforward" throughput of §III-B,
// valid for single-class workloads.
func ThroughputSeries(visits []trace.Visit, w Window, interval simnet.Duration) (*metrics.IntervalSeries, error) {
	if err := w.Check(interval); err != nil {
		return nil, err
	}
	s, err := metrics.NewIntervalSeriesCovering(w.Start, w.End, interval)
	if err != nil {
		return nil, fmt.Errorf("core: throughput series: %w", err)
	}
	for _, v := range visits {
		s.AddAt(v.Depart, 1)
	}
	return s.ToPerSecond(), nil
}

// NormalizedThroughputSeries computes the paper's normalized throughput:
// each completion contributes its class's work-unit count, making
// intervals with different request mixes comparable. The returned series
// is in work units per second.
func NormalizedThroughputSeries(visits []trace.Visit, svc ServiceTimes, unit simnet.Duration, w Window, interval simnet.Duration) (*metrics.IntervalSeries, error) {
	if err := w.Check(interval); err != nil {
		return nil, err
	}
	if unit <= 0 {
		unit = WorkUnit(svc)
	}
	s, err := metrics.NewIntervalSeriesCovering(w.Start, w.End, interval)
	if err != nil {
		return nil, fmt.Errorf("core: normalized throughput series: %w", err)
	}
	for _, v := range visits {
		s.AddAt(v.Depart, svc.Units(v.Class, unit))
	}
	return s.ToPerSecond(), nil
}
