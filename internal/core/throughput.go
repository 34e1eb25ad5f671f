package core

import (
	"fmt"
	"math/bits"

	"transientbd/internal/metrics"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// ServiceTimes maps request class → approximate queue-free service time at
// one server. The paper obtains these from intra-node delays measured
// under low load (§III-B, "Service time approximation").
type ServiceTimes map[string]simnet.Duration

// EstimateServiceTimes approximates per-class service times from a visit
// set. For each class it takes a low percentile (default 10) of the
// intra-node delays — residence minus downstream wait — read from one
// delayHist per class. The fastest completions of a class are the nearly
// queue-free ones only while some of them met no queue: under sustained
// congestion the percentile inflates with the queueing (4–9× on a
// half-congested MySQL trace), so it is not the paper's low-workload
// calibration pass.
//
// percentile outside (0,100] falls back to 10.
func EstimateServiceTimes(visits []trace.Visit, percentile float64) (ServiceTimes, error) {
	if len(visits) == 0 {
		return nil, ErrNoVisits
	}
	if percentile <= 0 || percentile > 100 {
		percentile = 10
	}
	byClass := make(map[string]delayHist)
	for _, v := range visits {
		h := byClass[v.Class]
		if h == nil {
			h = make(delayHist, histBuckets)
			byClass[v.Class] = h
		}
		h.add(v.IntraNodeDelay())
	}
	out := make(ServiceTimes, len(byClass))
	for class, h := range byClass {
		out[class], _ = h.serviceTime(percentile)
	}
	return out, nil
}

// The delay histogram's grid, in integer trace microseconds: one bucket
// per value below 2^(histSub+1), 2^histSub buckets per octave above, and a
// top bucket from which 2^histTop µs (4.2 s) on clamps: 304 buckets, and
// a bucket is at most 1/16 of its values wide. A finer grid bought no
// agreement between the engines, and its memory, with a histogram per
// class and epoch, is what the streaming detector's peak RSS moves with.
const (
	histSub     = 4
	histTop     = 22
	histBuckets = (histTop - histSub + 1) << histSub
)

// delayHist counts one class's intra-node delays on that log-linear grid:
// the one service-time estimator of both engines. A bucket is found from
// a bit length instead of a search, and counts merge by addition, so Online keeps one per class and
// re-estimation epoch and reads a window by summing them. stats.Histogram
// is not used: its float edges cost a binary search per sample.
type delayHist []uint32

// histBucket returns the bucket counting delay d, negative counting as
// zero: bucket e·2^histSub + (d >> e) holds the 2^e values from d's,
// where e is how many bits d has beyond histSub+1.
func histBucket(d simnet.Duration) int {
	v := uint64(max(d, 0))
	e := max(bits.Len64(v)-histSub-1, 0)
	return min(e<<histSub+int(v>>e), histBuckets-1)
}

// histMid returns the midpoint of bucket i's integer values.
func histMid(i int) float64 {
	e := max(i>>histSub-1, 0)
	return float64((i-e<<histSub)<<e) + float64(int(1)<<e-1)/2
}

func (h delayHist) add(d simnet.Duration) { h[histBucket(d)]++ }

// percentile is stats.Percentile's closest-rank interpolation over the
// bucket midpoints of the counted delays: exact while every delay is below
// 2^(histSub+1) µs, and otherwise within half a bucket of the upper rank's
// value. ok is false when h counts nothing.
func (h delayHist) percentile(p float64) (x float64, ok bool) {
	var n uint64
	for _, c := range h {
		n += uint64(c)
	}
	if n == 0 {
		return 0, false
	}
	// at is the midpoint of the bucket holding the k-th smallest delay.
	at := func(k uint64) float64 {
		var cum uint64
		for i, c := range h {
			if cum += uint64(c); cum > k {
				return histMid(i)
			}
		}
		return histMid(len(h) - 1)
	}
	rank := min(max(p, 0), 100) / 100 * float64(n-1)
	lo := uint64(rank)
	v := at(lo)
	frac := rank - float64(lo)
	if frac == 0 {
		return v, true
	}
	return v*(1-frac) + at(lo+1)*frac, true
}

// serviceTime is the p-th percentile as a service time, at least one
// microsecond: zero breaks work-unit math.
func (h delayHist) serviceTime(p float64) (simnet.Duration, bool) {
	x, ok := h.percentile(p)
	return simnet.Duration(max(x, 1)), ok
}

// workQuantum is the work unit: a completion counts one unit per 100 µs of
// its class's service time (§III-B; the paper's two-class example uses
// 10 ms). A fixed quantum keeps a class's units a function of its own
// service time, so normalized throughput scales with time dilation; a
// unit derived from the whole table, such as its GCD, does not.
const workQuantum = 100 * simnet.Microsecond

// WorkUnit returns the work-unit size normalization uses for a table: the
// fixed 100 µs quantum, whatever the table.
func WorkUnit(ServiceTimes) simnet.Duration { return workQuantum }

// work is what one completion of class adds to normalized throughput, in
// trace microseconds: its service time, and at least one unit (§III-B:
// "requests with a longer service time transform into a greater number of
// work units"); an unknown class counts one unit. Both engines sum work
// and divide by the unit once per interval, so the sum is exact and does
// not depend on the order completions arrive in.
func (s ServiceTimes) work(class string, unit simnet.Duration) simnet.Duration {
	return max(s[class], unit)
}

// Units returns how many work units a request of the given class
// transforms into: work over the unit. Unknown classes count as one unit.
func (s ServiceTimes) Units(class string, unit simnet.Duration) float64 {
	if unit <= 0 {
		return 1
	}
	return float64(s.work(class, unit)) / float64(unit)
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
		s.AddAt(v.Depart, float64(svc.work(v.Class, unit)))
	}
	s.Scale(1 / float64(unit))
	return s.ToPerSecond(), nil
}
