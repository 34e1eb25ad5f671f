package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"transientbd/internal/metrics"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// IntervalState classifies one monitoring interval of one server.
type IntervalState int

// Interval states. Idle means no measurable load; Normal means load at or
// below the congestion point; Congested means load beyond N* (a transient
// bottleneck episode); a congested interval with near-zero throughput is
// additionally reported as a POI.
const (
	StateIdle IntervalState = iota + 1
	StateNormal
	StateCongested
)

// String implements fmt.Stringer.
func (s IntervalState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateNormal:
		return "normal"
	case StateCongested:
		return "congested"
	default:
		return fmt.Sprintf("IntervalState(%d)", int(s))
	}
}

// Options configures an analysis pass.
type Options struct {
	// Interval is the monitoring interval length. Default 50 ms, the
	// paper's choice after the Fig 8 sensitivity study.
	Interval simnet.Duration
	// ServiceTimes, when non-nil, is a calibrated per-class service-time
	// table (the paper's low-load calibration pass), used verbatim by
	// both engines: AnalyzeServer skips its self-estimate, and Online
	// normalizes against it instead of the table it rebuilds from its
	// window's delay histograms — which is what makes a streaming run
	// bit-identical to a batch pass fed the same table. Ignored under
	// RawThroughput.
	ServiceTimes ServiceTimes
	// NStar tunes the congestion-point estimator.
	NStar NStarOptions
	// POIFraction is the normalized-throughput fraction of TPMax below
	// which a congested interval counts as a POI (a freeze). Default 0.2.
	POIFraction float64
	// Normalize disables throughput normalization when false-by-flag via
	// RawThroughput (ablation: the Fig 7 problem).
	RawThroughput bool
	// Parallelism bounds the worker goroutines AnalyzeSystemGrouped fans
	// the per-server analyses across — the one stage of the batch method
	// that is parallel by nature (§III) and the one pool measurement
	// defends (PERFORMANCE.md). 0 (the default) uses GOMAXPROCS; 1 forces
	// the serial path. Results are identical at every setting.
	Parallelism int
	// Quality, when non-nil, is the trace-quality report accumulated by
	// the ingestion and repair passes that produced the visits. Analysis
	// adds its own tally (servers skipped for lack of usable data) and
	// attaches the report to the SystemAnalysis.
	Quality *TraceQuality
}

func (o *Options) applyDefaults() {
	if o.Interval <= 0 {
		o.Interval = 50 * simnet.Millisecond
	}
	if o.POIFraction <= 0 {
		o.POIFraction = 0.2
	}
}

const (
	// servicePercentile is the intra-node-delay percentile both engines
	// take as the per-class service-time estimate.
	servicePercentile = 10
	// minIdleLoad is the load below which an interval is idle rather than
	// normal.
	minIdleLoad = 0.5
)

// Analysis is the full fine-grained result for one server — what §III
// defines per server, and the one shape both engines report it in:
// AnalyzeServer over a batch of visits, Online.Snapshot over the sliding
// window's closed intervals.
type Analysis struct {
	// Server is the analyzed server's name. Online.Snapshot leaves it
	// empty (an Online does not know whose visits it is fed); the stream
	// shard that owns the analyzer sets it.
	Server string
	// Window and Interval describe the time grid: from AnalyzeServer the
	// window it was given, from Online.Snapshot the span of the covered
	// intervals.
	Window   Window
	Interval simnet.Duration

	// Load is the per-interval time-weighted concurrency (§III-A).
	Load *metrics.IntervalSeries
	// TP is the per-interval throughput used for detection, and the only
	// throughput series the pass builds: normalized work units/s by
	// default, raw requests/s when RawThroughput was set.
	TP *metrics.IntervalSeries

	// ServiceTimes and Unit are the normalization inputs (from
	// Online.Snapshot, the table the analyzer last normalized with).
	ServiceTimes ServiceTimes
	Unit         simnet.Duration

	// NStar is the estimated congestion point.
	NStar NStarResult

	// States classifies every interval.
	States []IntervalState
	// POIs are indices of congested intervals with near-zero throughput
	// (server freezes, Fig 9b).
	POIs []int

	// CongestedIntervals and CongestedFraction summarize transient
	// bottleneck frequency.
	CongestedIntervals int
	CongestedFraction  float64
}

// Points returns the (load, throughput) scatter of the analysis — the
// dots of Fig 5(c).
func (a *Analysis) Points() []Point {
	load := a.Load.Values()
	tp := a.TP.Values()
	pts := make([]Point, len(load))
	for i := range load {
		pts[i] = Point{Load: load[i], TP: tp[i]}
	}
	return pts
}

// AnalyzeServer runs the full §III pipeline over one server's visits.
// Service times come from Options.ServiceTimes (e.g. a low-load
// calibration run, as the paper recommends) or, when that is nil, are
// estimated from these visits.
func AnalyzeServer(serverName string, visits []trace.Visit, w Window, opts Options) (*Analysis, error) {
	opts.applyDefaults()
	if err := w.Check(opts.Interval); err != nil {
		return nil, err
	}
	if len(visits) == 0 {
		return nil, fmt.Errorf("%w: server %q", ErrNoVisits, serverName)
	}
	svc := opts.ServiceTimes
	if svc == nil {
		est, err := EstimateServiceTimes(visits, servicePercentile)
		if err != nil {
			return nil, fmt.Errorf("core: estimate service times: %w", err)
		}
		svc = est
	}
	unit := WorkUnit(svc)

	load, err := LoadSeries(visits, w, opts.Interval)
	if err != nil {
		return nil, err
	}
	var tp *metrics.IntervalSeries
	if opts.RawThroughput {
		tp, err = ThroughputSeries(visits, w, opts.Interval)
	} else {
		tp, err = NormalizedThroughputSeries(visits, svc, unit, w, opts.Interval)
	}
	if err != nil {
		return nil, err
	}
	return newAnalysis(serverName, w, load.Values(), tp.Values(), svc, unit, opts)
}

// newAnalysis builds the per-server result from aligned per-interval
// measurements on the grid starting at w.Start — the one place an Analysis
// is filled. AnalyzeServer and Online.Snapshot differ only in how they
// measure the values; both hand them here, where they are adopted as the
// result's series and classified, so equal measurements give equal
// results by construction.
func newAnalysis(server string, w Window, load, tp []float64, svc ServiceTimes, unit simnet.Duration, opts Options) (*Analysis, error) {
	a := &Analysis{
		Server:       server,
		Window:       w,
		Interval:     opts.Interval,
		Load:         metrics.AdoptIntervalSeries(w.Start, opts.Interval, load),
		TP:           metrics.AdoptIntervalSeries(w.Start, opts.Interval, tp),
		ServiceTimes: svc,
		Unit:         unit,
	}
	if err := classifySeries(a, load, tp, opts); err != nil {
		return nil, fmt.Errorf("core: estimate N* for %q: %w", server, err)
	}
	return a, nil
}

// classifySeries is the decision stage of both engines: it estimates the
// congestion point from the aligned load/throughput values and classifies
// every interval against it, filling a's NStar, States, POIs and congested
// tallies.
func classifySeries(a *Analysis, load, tp []float64, opts Options) error {
	pts, err := CorrelatePoints(load, tp)
	if err != nil {
		return err
	}
	nstar, err := EstimateNStar(pts, opts.NStar)
	switch {
	case errors.Is(err, ErrNoPoints):
		// The server's load never rose above the curve threshold: it is
		// trivially unsaturated. Report N* at the highest observed load so
		// no interval classifies as congested.
		maxLoad := 0.0
		for _, p := range pts {
			if p.Load > maxLoad {
				maxLoad = p.Load
			}
		}
		nstar = NStarResult{NStar: maxLoad}
	case err != nil:
		return err
	}
	if math.IsNaN(nstar.NStar) || math.IsInf(nstar.NStar, 0) {
		// A degenerate curve (degraded trace, near-empty intervals) can
		// poison the estimate. Fall back to the highest finite observed
		// load so classification stays well-defined and conservative.
		maxLoad := 0.0
		for _, p := range pts {
			if !math.IsNaN(p.Load) && !math.IsInf(p.Load, 0) && p.Load > maxLoad {
				maxLoad = p.Load
			}
		}
		nstar.NStar = maxLoad
		nstar.Saturated = false
	}

	a.NStar = nstar
	a.States = make([]IntervalState, len(load))
	for i := range load {
		l := load[i]
		switch {
		case math.IsNaN(l):
			// A NaN load (empty or degenerate interval) compares false
			// against everything; classify it as idle, not normal.
			a.States[i] = StateIdle
		case l < minIdleLoad:
			a.States[i] = StateIdle
		case l > nstar.NStar:
			a.States[i] = StateCongested
			a.CongestedIntervals++
			if tp[i] < opts.POIFraction*nstar.TPMax {
				a.POIs = append(a.POIs, i)
			}
		default:
			a.States[i] = StateNormal
		}
	}
	if len(load) > 0 {
		a.CongestedFraction = float64(a.CongestedIntervals) / float64(len(load))
	}
	return nil
}

// ServerReport summarizes one server for ranking.
type ServerReport struct {
	Server             string
	NStar              float64
	TPMax              float64
	CongestedIntervals int
	CongestedFraction  float64
	POICount           int
}

// SkippedServer names a server AnalyzeSystemGrouped left out of the
// report and the per-server error that caused it.
type SkippedServer struct {
	Server string
	Err    error
}

// SystemAnalysis is the result of analyzing every server of a system.
type SystemAnalysis struct {
	// PerServer holds the full analysis per server name.
	PerServer map[string]*Analysis
	// Ranking lists servers by congested fraction, worst first — the
	// transient-bottleneck ranking the operator acts on.
	Ranking []ServerReport
	// Skipped lists the servers whose analysis failed, in server-name
	// order. A strict caller fails on the first; a lenient one counts
	// them (Quality.ServersSkipped does, when a report is attached).
	Skipped []SkippedServer
	// Quality is the trace-quality report when the caller supplied one
	// via Options.Quality; nil for a strict, clean run.
	Quality *TraceQuality
}

// AnalyzeSystem groups visits by server and analyzes each, ranking servers
// by transient-bottleneck frequency. Servers whose analysis fails for lack
// of data are skipped. The result is identical at every Parallelism.
func AnalyzeSystem(visits []trace.Visit, w Window, opts Options) (*SystemAnalysis, error) {
	if len(visits) == 0 {
		return nil, ErrNoVisits
	}
	return AnalyzeSystemGrouped(trace.PerServer(visits), w, opts)
}

// AnalyzeSystemGrouped is AnalyzeSystem for visits already grouped by
// server — the one batch orchestration behind the public Analyze,
// tbdetect -in (which builds the per-server map incrementally from
// internal/traceio without materializing a flat visit slice) and the
// experiments. Per-server analyses fan out across up to
// Options.Parallelism workers (0 = GOMAXPROCS); each server's analysis
// reads only that server's visits, so no locking is needed and the report
// is bit-identical to a serial pass.
//
// Servers whose analysis fails are left out and listed in Skipped. When
// every server fails the error is non-nil and the returned SystemAnalysis
// carries only Skipped, so the caller can still say why. A window of more
// than MaxIntervals intervals fails before any server is analyzed, with a
// nil SystemAnalysis; an empty one fails each server.
func AnalyzeSystemGrouped(perServer map[string][]trace.Visit, w Window, opts Options) (*SystemAnalysis, error) {
	if len(perServer) == 0 {
		return nil, ErrNoVisits
	}
	opts.applyDefaults()
	if err := w.Check(opts.Interval); err != nil && w.End > w.Start {
		return nil, err
	}
	names := make([]string, 0, len(perServer))
	for name := range perServer {
		names = append(names, name)
	}
	sort.Strings(names)

	// One result slot per server: workers write disjoint indices, so the
	// only synchronization needed is forEach's completion barrier.
	analyses := make([]*Analysis, len(names))
	errs := make([]error, len(names))
	forEach(opts.Parallelism, len(names), func(i int) {
		analyses[i], errs[i] = AnalyzeServer(names[i], perServer[names[i]], w, opts)
	})

	out := &SystemAnalysis{PerServer: make(map[string]*Analysis, len(names)), Quality: opts.Quality}
	ranked := make([]*Analysis, 0, len(names))
	for i, a := range analyses {
		if errs[i] != nil {
			out.Skipped = append(out.Skipped, SkippedServer{Server: names[i], Err: errs[i]})
			continue
		}
		out.PerServer[names[i]] = a
		ranked = append(ranked, a)
	}
	if opts.Quality != nil {
		opts.Quality.ServersSkipped += len(out.Skipped)
	}
	if len(ranked) == 0 {
		return out, fmt.Errorf("core: no server produced an analysis")
	}
	SortWorstFirst(ranked)
	for _, a := range ranked {
		out.Ranking = append(out.Ranking, ServerReport{
			Server:             a.Server,
			NStar:              a.NStar.NStar,
			TPMax:              a.NStar.TPMax,
			CongestedIntervals: a.CongestedIntervals,
			CongestedFraction:  a.CongestedFraction,
			POICount:           len(a.POIs),
		})
	}
	return out, nil
}

// SortWorstFirst orders per-server results by congested fraction
// descending, ties broken by server name ascending — the ranking every
// report surface shows. Server names are unique within a report, so the
// order is total and the result deterministic.
func SortWorstFirst(as []*Analysis) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].CongestedFraction != as[j].CongestedFraction {
			return as[i].CongestedFraction > as[j].CongestedFraction
		}
		return as[i].Server < as[j].Server
	})
}

// Ranked returns the per-server results in Ranking order, worst first.
func (s *SystemAnalysis) Ranked() []*Analysis {
	as := make([]*Analysis, len(s.Ranking))
	for i, r := range s.Ranking {
		as[i] = s.PerServer[r.Server]
	}
	return as
}
