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
	// ServicePercentile is the intra-node-delay percentile used as the
	// per-class service-time estimate. Default 10.
	ServicePercentile float64
	// ServiceTimes, when non-nil, is a calibrated per-class service-time
	// table (the paper's low-load calibration pass), used verbatim by
	// both engines: AnalyzeServer skips its self-estimate, and Online
	// normalizes against it instead of its drifting reservoirs — which is
	// what makes a streaming run bit-identical to a batch pass fed the
	// same table. Ignored under RawThroughput.
	ServiceTimes ServiceTimes
	// WorkUnit overrides the derived work-unit size (0 = derive via GCD).
	WorkUnit simnet.Duration
	// NStar tunes the congestion-point estimator.
	NStar NStarOptions
	// POIFraction is the normalized-throughput fraction of TPMax below
	// which a congested interval counts as a POI (a freeze). Default 0.2.
	POIFraction float64
	// MinIdleLoad is the load below which an interval is idle rather than
	// normal. Default 0.5.
	MinIdleLoad float64
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
	if o.ServicePercentile <= 0 || o.ServicePercentile > 100 {
		o.ServicePercentile = 10
	}
	if o.POIFraction <= 0 {
		o.POIFraction = 0.2
	}
	if o.MinIdleLoad <= 0 {
		o.MinIdleLoad = 0.5
	}
}

// Analysis is the full fine-grained result for one server.
type Analysis struct {
	// Server is the analyzed server's name.
	Server string
	// Window and Interval describe the time grid.
	Window   Window
	Interval simnet.Duration

	// Load is the per-interval time-weighted concurrency (§III-A).
	Load *metrics.IntervalSeries
	// TP is the per-interval throughput used for detection, and the only
	// throughput series the pass builds: normalized work units/s by
	// default, raw requests/s when RawThroughput was set.
	TP *metrics.IntervalSeries

	// ServiceTimes and Unit are the normalization inputs.
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
	if err := w.validate(); err != nil {
		return nil, err
	}
	if len(visits) == 0 {
		return nil, fmt.Errorf("%w: server %q", ErrNoVisits, serverName)
	}
	svc := opts.ServiceTimes
	if svc == nil {
		est, err := EstimateServiceTimes(visits, opts.ServicePercentile)
		if err != nil {
			return nil, fmt.Errorf("core: estimate service times: %w", err)
		}
		svc = est
	}
	unit := opts.WorkUnit
	if unit <= 0 {
		unit = WorkUnit(svc)
	}

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

	cls, err := classifySeries(load.Values(), tp.Values(), opts)
	if err != nil {
		return nil, fmt.Errorf("core: estimate N* for %q: %w", serverName, err)
	}

	a := &Analysis{
		Server:             serverName,
		Window:             w,
		Interval:           opts.Interval,
		Load:               load,
		TP:                 tp,
		ServiceTimes:       svc,
		Unit:               unit,
		NStar:              cls.NStar,
		States:             cls.States,
		POIs:               cls.POIs,
		CongestedIntervals: cls.CongestedIntervals,
		CongestedFraction:  cls.CongestedFraction,
	}
	return a, nil
}

// classification is the output of classifySeries: the congestion point and
// the per-interval verdicts derived from it.
type classification struct {
	NStar              NStarResult
	States             []IntervalState
	POIs               []int
	CongestedIntervals int
	CongestedFraction  float64
}

// classifySeries runs congestion-point estimation and per-interval
// classification over aligned load/throughput series. It is the single
// shared decision stage behind both the batch path (AnalyzeServer) and the
// streaming snapshot path (Online.Snapshot): because both call exactly
// this function over their measured series, their verdicts cannot drift
// apart — the property the stream equivalence harness pins down.
func classifySeries(load, tp []float64, opts Options) (classification, error) {
	pts, err := CorrelatePoints(load, tp)
	if err != nil {
		return classification{}, err
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
		return classification{}, err
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

	cls := classification{
		NStar:  nstar,
		States: make([]IntervalState, len(load)),
	}
	for i := range load {
		l := load[i]
		switch {
		case math.IsNaN(l):
			// A NaN load (empty or degenerate interval) compares false
			// against everything; classify it as idle, not normal.
			cls.States[i] = StateIdle
		case l < opts.MinIdleLoad:
			cls.States[i] = StateIdle
		case l > nstar.NStar:
			cls.States[i] = StateCongested
			cls.CongestedIntervals++
			if tp[i] < opts.POIFraction*nstar.TPMax {
				cls.POIs = append(cls.POIs, i)
			}
		default:
			cls.States[i] = StateNormal
		}
	}
	if len(load) > 0 {
		cls.CongestedFraction = float64(cls.CongestedIntervals) / float64(len(load))
	}
	return cls, nil
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
// carries only Skipped, so the caller can still say why.
func AnalyzeSystemGrouped(perServer map[string][]trace.Visit, w Window, opts Options) (*SystemAnalysis, error) {
	if len(perServer) == 0 {
		return nil, ErrNoVisits
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
	for i, a := range analyses {
		if errs[i] != nil {
			out.Skipped = append(out.Skipped, SkippedServer{Server: names[i], Err: errs[i]})
			continue
		}
		out.PerServer[names[i]] = a
		out.Ranking = append(out.Ranking, ServerReport{
			Server:             names[i],
			NStar:              a.NStar.NStar,
			TPMax:              a.NStar.TPMax,
			CongestedIntervals: a.CongestedIntervals,
			CongestedFraction:  a.CongestedFraction,
			POICount:           len(a.POIs),
		})
	}
	if opts.Quality != nil {
		opts.Quality.ServersSkipped += len(out.Skipped)
	}
	if len(out.PerServer) == 0 {
		return out, fmt.Errorf("core: no server produced an analysis")
	}
	sort.Slice(out.Ranking, func(i, j int) bool {
		if out.Ranking[i].CongestedFraction != out.Ranking[j].CongestedFraction {
			return out.Ranking[i].CongestedFraction > out.Ranking[j].CongestedFraction
		}
		return out.Ranking[i].Server < out.Ranking[j].Server
	})
	return out, nil
}
