// Package core implements the paper's contribution: fine-grained
// load/throughput correlation analysis for transient bottleneck detection
// (§III).
//
// Given per-server request arrival/departure timestamps from passive
// network tracing (package trace), the pipeline is:
//
//  1. Load calculation (§III-A): per short interval (default 50 ms), the
//     time-weighted average number of concurrent requests.
//  2. Throughput calculation (§III-B): completed requests per interval,
//     normalized into comparable work units under mixed-class workloads
//     using per-class service-time estimates.
//  3. Congestion point N* determination (§III-C): statistical intervention
//     analysis over the binned load/throughput curve (Eq. 1 and 2).
//  4. Classification: an interval with load beyond N* is a short-term
//     congestion episode; frequent episodes mark the server as a transient
//     bottleneck. Congested intervals with near-zero throughput are POIs
//     (points of interest, Fig 9b) — server freezes such as stop-the-world
//     garbage collection.
//
// # Concurrency
//
// The method is embarrassingly parallel across servers: every stage above
// reads only one server's visits. The package exploits that as follows.
//
//   - AnalyzeServer, LoadSeries, ThroughputSeries,
//     NormalizedThroughputSeries, EstimateServiceTimes, EstimateNStar and
//     the other free functions are pure: they never mutate their inputs
//     and share no state, so any number may run concurrently — including
//     over the same visit slice.
//   - AnalyzeSystemGrouped — the one batch orchestration; AnalyzeSystem,
//     the public Analyze and tbdetect -in all end in it — fans the
//     per-server analyses out across a bounded worker pool
//     (Options.Parallelism; 0 means GOMAXPROCS). That is the only fan-out
//     in the batch path: grouping and record conversion are serial
//     (PERFORMANCE.md has the measurement). It is safe to call
//     concurrently, and results are independent of the worker count.
//   - Analysis, SystemAnalysis, NStarResult and ServiceTimes values are
//     safe for concurrent reads once returned; they have no internal
//     locking, so treat them as immutable.
//   - Online (the streaming analyzer) is single-writer: Observe and
//     Advance must be externally serialized, one Online per server.
package core

import (
	"errors"
	"fmt"

	"transientbd/internal/metrics"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// ErrNoVisits indicates an analysis was requested over an empty visit set.
var ErrNoVisits = errors.New("core: no visits")

// Window is the analysis time window [Start, End).
type Window struct {
	Start, End simnet.Time
}

// Span returns the window length.
func (w Window) Span() simnet.Duration { return w.End - w.Start }

const (
	// MinWindowIntervals is the fewest intervals an online window may
	// cover: N* needs that many load/throughput points.
	MinWindowIntervals = 20
	// MaxIntervals is the most intervals any per-server series is sized
	// for: ≈58 h at 50 ms, 32 MiB a series. A far-future timestamp or a
	// huge window is an error, not an allocation that kills the process.
	MaxIntervals = 1 << 22
)

// CheckIntervals returns an error unless a window of n intervals holds at
// least the given number of them and at most MaxIntervals. Online windows
// need MinWindowIntervals.
func CheckIntervals(n, least int64) error {
	switch {
	case n < least:
		return fmt.Errorf("window must cover at least %d intervals", least)
	case n > MaxIntervals:
		return fmt.Errorf("window of %d intervals exceeds the limit of %d", n, MaxIntervals)
	}
	return nil
}

// Check returns an error unless w is non-empty and the positive interval
// divides it into at most MaxIntervals intervals, the last one possibly
// partial. Every batch series is sized after this check.
func (w Window) Check(interval simnet.Duration) error {
	switch {
	case w.End <= w.Start:
		return fmt.Errorf("core: empty window [%v,%v)", w.Start, w.End)
	case interval <= 0:
		return fmt.Errorf("core: interval %v must be positive", interval)
	}
	if err := CheckIntervals(int64((w.Span()-1)/interval+1), 1); err != nil {
		return fmt.Errorf("core: interval %v: %w", simnet.Std(interval), err)
	}
	return nil
}

// LoadSeries computes the paper's load metric (§III-A): for each interval,
// the time-weighted average number of concurrent requests at the server.
// Requests contribute from their arrival to their departure, including
// spans that cross interval boundaries (Fig 6).
//
// The series is built with the incremental metrics.LoadAccumulator —
// O(V + I) with no sort and no step-change buffer — and is bit-identical
// to the StepAccumulator sweep it replaced (both sum exact integer
// microsecond counts per interval; TestLoadAccumulatorMatchesStepOracle
// pins the equivalence across adversarial visit sets).
func LoadSeries(visits []trace.Visit, w Window, interval simnet.Duration) (*metrics.IntervalSeries, error) {
	if err := w.Check(interval); err != nil {
		return nil, err
	}
	acc, err := metrics.NewLoadAccumulator(w.Start, w.End, interval)
	if err != nil {
		return nil, fmt.Errorf("core: load series: %w", err)
	}
	for _, v := range visits {
		acc.Add(v.Arrive, v.Depart)
	}
	s, err := acc.Series()
	if err != nil {
		return nil, fmt.Errorf("core: load series: %w", err)
	}
	return s, nil
}
