package transientbd

import (
	"errors"
	"fmt"
	"time"

	"transientbd/internal/cause"
	"transientbd/internal/core"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// Record is one request's residence at one server, as captured by passive
// tracing: the request (call) message's arrival and the response (return)
// message's departure. Timestamps are offsets from any common epoch.
type Record struct {
	// Server names the host the request visited.
	Server string
	// Class is the request class (URL pattern, query template, ...).
	// Classes drive throughput normalization; use "" for single-class
	// workloads.
	Class string
	// Arrive and Depart bound the request's residence at the server.
	Arrive, Depart time.Duration
	// DownstreamWait is time within the residence spent blocked on calls
	// to other tiers, if known (improves service-time estimation).
	DownstreamWait time.Duration
	// TxnID and HopID optionally link the record into its end-to-end
	// transaction (0 = unknown). Root-cause attribution derives the call
	// graph from TxnID: a record's caller is the tightest record of the
	// same transaction, on another server, that encloses it in time.
	// Lenient analysis also uses the linkage to detect and repair
	// cross-server clock skew.
	TxnID, HopID int64
}

// Config tunes an analysis. The zero value reproduces the paper's
// defaults: 50 ms intervals, 100 load bins, 0.2·δ0 tolerance, 95%
// one-sided confidence.
type Config struct {
	// Interval is the monitoring interval length (default 50 ms): a
	// positive whole number of microseconds, the trace clock's tick.
	Interval time.Duration
	// Window restricts analysis to [WindowStart, WindowEnd); zero values
	// cover the whole record span, and a non-zero WindowEnd at or before
	// WindowStart also means the span runs to the last departure.
	WindowStart, WindowEnd time.Duration
	// Bins is the number of load bins for N* estimation (default 100).
	Bins int
	// TolFraction is the saturation tolerance as a fraction of the
	// unsaturated slope (default 0.2).
	TolFraction float64
	// POIFraction flags congested intervals with throughput below this
	// fraction of the ceiling as freezes (default 0.2).
	POIFraction float64
	// RawThroughput disables work-unit normalization (single-class
	// workloads, or ablation).
	RawThroughput bool
	// ServiceTimes supplies per-class service times from a separate
	// low-load calibration; nil estimates them from the records.
	ServiceTimes map[string]time.Duration
	// Parallelism bounds the worker goroutines Analyze fans the
	// per-server analyses across. 0 (the default) uses GOMAXPROCS; 1
	// forces the serial path. The report is identical at every setting —
	// see PERFORMANCE.md for the determinism contract.
	Parallelism int
	// Lenient makes Analyze survive degraded inputs instead of failing
	// on the first anomaly: invalid records (no server, or departure
	// before arrival) are quarantined rather than fatal, cross-server
	// clock skew is detected and repaired where TxnID linkage permits,
	// and servers whose analysis fails for lack of usable data are
	// skipped rather than aborting the report. What was dropped and
	// repaired is tallied in Report.Quality. Analyze still fails with
	// ErrNoRecords when every record is quarantined, and with an error
	// when no server at all produces an analysis.
	Lenient bool
}

// Episode is one contiguous run of congested intervals at a server.
type Episode struct {
	// Start is the beginning of the first congested interval.
	Start time.Duration
	// Length is the episode duration.
	Length time.Duration
	// Freeze reports whether any interval of the episode was a POI
	// (near-zero throughput under load).
	Freeze bool
}

// ServerAnalysis is the per-server detection result.
type ServerAnalysis struct {
	// Server is the analyzed host.
	Server string
	// NStar is the estimated congestion point (concurrent requests).
	NStar float64
	// TPMax is the throughput ceiling, in work units per second.
	TPMax float64
	// Saturated reports whether a knee was confirmed in the data.
	Saturated bool
	// CongestedFraction is the fraction of intervals with load beyond
	// N*.
	CongestedFraction float64
	// Episodes lists contiguous congestion episodes, in time order.
	Episodes []Episode
	// POITimes are the starts of freeze intervals (high load, ~zero
	// throughput).
	POITimes []time.Duration
	// Load and Throughput are the per-interval series (load in concurrent
	// requests; throughput in work units/second), aligned to Interval.
	Load, Throughput []float64
	// Interval is the series' interval length.
	Interval time.Duration
	// WindowStart is the time of the first interval.
	WindowStart time.Duration
}

// TraceQuality reports what lenient analysis dropped and repaired. All
// counts are zero and ServerSkew empty for a clean input.
type TraceQuality struct {
	// Records is the number of input records; RecordsDropped counts those
	// quarantined as invalid (no server, or departure before arrival).
	Records        int
	RecordsDropped int
	// SkewViolations counts cross-server causality violations observed
	// before repair; ServerSkew holds the applied per-server clock
	// corrections; VisitsRepaired counts records whose timestamps moved.
	SkewViolations int
	ServerSkew     map[string]time.Duration
	VisitsRepaired int
	// ServersSkipped counts servers dropped because their records were
	// too sparse or degenerate to analyze.
	ServersSkipped int
}

// Coverage is the fraction of input records that survived into the
// analysis. An empty input counts as full coverage.
func (q *TraceQuality) Coverage() float64 {
	if q.Records == 0 {
		return 1
	}
	return float64(q.Records-q.RecordsDropped) / float64(q.Records)
}

// Report is a whole-system analysis.
type Report struct {
	// PerServer maps server name to its analysis.
	PerServer map[string]*ServerAnalysis
	// Ranking orders servers by congested fraction, worst first.
	Ranking []*ServerAnalysis
	// Causes ranks root-cause verdicts across the whole system, most
	// likely first. Empty when no server congested enough to
	// fingerprint.
	Causes []CauseVerdict
	// Quality describes drops and repairs when Config.Lenient was set;
	// nil for strict runs.
	Quality *TraceQuality
}

// ErrNoRecords is returned when Analyze receives no usable records.
var ErrNoRecords = errors.New("transientbd: no records")

// Analyze runs the paper's detection pipeline over a set of records and
// reports, per server, the congestion point, the congested intervals and
// freeze episodes, ranked by transient-bottleneck frequency.
//
// Analyze is a conversion facade: one serial pass validates each record
// and appends it to its server's visits, and the grouped visits go to the
// same batch orchestration tbdetect -in runs (core.AnalyzeSystemGrouped).
// The per-server analyses — independent by construction, §III computes
// load, normalized throughput and N* per tier — are the one stage fanned
// out, across Config.Parallelism workers; the report is identical whatever
// the worker count.
func Analyze(records []Record, cfg Config) (*Report, error) {
	if len(records) == 0 {
		return nil, ErrNoRecords
	}
	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	var perServer map[string][]trace.Visit
	var maxDepart simnet.Time
	var graph map[string][]string
	if cfg.Lenient {
		// Skew repair needs whole transactions, so the lenient path
		// materializes the usable visits before grouping.
		opts.Quality = &core.TraceQuality{}
		visits := make([]trace.Visit, 0, len(records))
		for i := range records {
			if validateRecord(i, &records[i]) != nil {
				opts.Quality.VisitsQuarantined++
				continue
			}
			visits = append(visits, recordToVisit(&records[i]))
		}
		if len(visits) == 0 {
			return nil, ErrNoRecords
		}
		perServer, maxDepart, graph = core.GroupRepaired(visits, opts.Quality)
	} else {
		var g trace.Grouper
		var b trace.CallGraphBuilder
		for i := range records {
			if err := validateRecord(i, &records[i]); err != nil {
				return nil, err
			}
			v := recordToVisit(&records[i])
			g.Add(v)
			maxDepart = max(maxDepart, v.Depart)
			b.Add(v)
		}
		perServer, graph = g.Groups(), b.Graph()
	}

	sys, err := core.AnalyzeSystemGrouped(perServer, cfg.window(maxDepart), opts)
	if sys == nil {
		return nil, fmt.Errorf("transientbd: %w", err)
	}
	if !cfg.Lenient && len(sys.Skipped) > 0 {
		first := sys.Skipped[0]
		return nil, fmt.Errorf("transientbd: analyze %q: %w", first.Server, first.Err)
	}
	if err != nil {
		return nil, fmt.Errorf("transientbd: no server produced an analysis")
	}

	report := newReport(sys.Ranked(), graph)
	if q := sys.Quality; q != nil {
		report.Quality = &TraceQuality{
			Records:        len(records),
			RecordsDropped: q.VisitsQuarantined,
			SkewViolations: q.SkewViolations,
			VisitsRepaired: q.VisitsRepaired,
			ServersSkipped: q.ServersSkipped,
		}
		if len(q.SkewOffsets) > 0 {
			report.Quality.ServerSkew = make(map[string]time.Duration, len(q.SkewOffsets))
			for name, off := range q.SkewOffsets {
				report.Quality.ServerSkew[name] = simnet.Std(off)
			}
		}
	}
	return report, nil
}

// coreOptions is the one translation from the public Config to the
// internal analysis options; Analyze and Classes both use it, so the two
// cannot judge the same server by different rules.
func (cfg Config) coreOptions() (core.Options, error) {
	interval, err := coreInterval(cfg.Interval)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Interval:      interval,
		ServiceTimes:  coreServiceTimes(cfg.ServiceTimes),
		POIFraction:   cfg.POIFraction,
		RawThroughput: cfg.RawThroughput,
		Parallelism:   cfg.Parallelism,
		NStar: core.NStarOptions{
			Bins:        cfg.Bins,
			TolFraction: cfg.TolFraction,
		},
	}, nil
}

// coreInterval converts a public Interval to the trace clock, which ticks
// in microseconds: zero selects the default 50 ms, and anything else must
// be a positive whole number of microseconds — the conversion would
// otherwise truncate it to a grid the caller did not ask for.
func coreInterval(d time.Duration) (simnet.Duration, error) {
	if d == 0 {
		return 50 * simnet.Millisecond, nil
	}
	iv := simnet.FromStdDuration(d)
	if iv <= 0 || simnet.Std(iv) != d {
		return 0, fmt.Errorf("transientbd: Interval %v must be a positive whole number of microseconds", d)
	}
	return iv, nil
}

// window resolves the configured analysis window; an unset (or inverted)
// window ends just past the latest departure.
func (cfg Config) window(maxDepart simnet.Time) core.Window {
	w := core.Window{
		Start: simnet.FromStdDuration(cfg.WindowStart),
		End:   simnet.FromStdDuration(cfg.WindowEnd),
	}
	if w.End <= w.Start {
		w.End = maxDepart + 1
	}
	return w
}

// coreServiceTimes converts a calibrated table; nil stays nil (estimate
// from the data).
func coreServiceTimes(table map[string]time.Duration) core.ServiceTimes {
	if table == nil {
		return nil
	}
	svc := make(core.ServiceTimes, len(table))
	for class, d := range table {
		svc[class] = simnet.FromStdDuration(d)
	}
	return svc
}

func validateRecord(i int, r *Record) error {
	if r.Server == "" {
		return fmt.Errorf("transientbd: record %d has no server", i)
	}
	if r.Depart < r.Arrive {
		return fmt.Errorf("transientbd: record %d departs before it arrives", i)
	}
	return nil
}

// recordToVisit is the one Record → trace.Visit conversion in the
// package: every surface (Analyze, Classes, ChooseInterval,
// Stream) goes through it.
func recordToVisit(r *Record) trace.Visit {
	return trace.Visit{
		Server:     r.Server,
		Class:      r.Class,
		Arrive:     simnet.FromStdDuration(r.Arrive),
		Depart:     simnet.FromStdDuration(r.Depart),
		Downstream: simnet.FromStdDuration(r.DownstreamWait),
		TxnID:      r.TxnID,
		HopID:      r.HopID,
	}
}

// newReport shapes ranked per-server results (worst first, as both
// engines deliver them) into the public Report and attaches the root-cause
// verdicts — the one conversion behind Analyze, Stream.Snapshot and
// Stream.Close, so the report surfaces cannot drift. The call graph comes
// from the records' transaction linkage and is nil without it: the
// attribution engine's cross-server fingerprints work without one, but a
// caller→callee map sharpens them — mirror congestion is discounted and
// pool clips are chased down the chain.
func newReport(ranked []*core.Analysis, graph map[string][]string) *Report {
	report := &Report{PerServer: make(map[string]*ServerAnalysis, len(ranked))}
	for _, a := range ranked {
		sa := convertAnalysis(a)
		report.PerServer[a.Server] = sa
		report.Ranking = append(report.Ranking, sa)
	}
	verdicts := cause.AttributeAnalyses(ranked, cause.Options{Downstream: graph})
	report.Causes = make([]CauseVerdict, 0, len(verdicts))
	for _, v := range verdicts {
		report.Causes = append(report.Causes, CauseVerdict{
			Kind:       string(v.Kind),
			Server:     v.Server,
			Confidence: v.Confidence,
			Score:      v.Score,
			Evidence:   v.Evidence,
		})
	}
	return report
}

// convertAnalysis renders one per-server result in the public API's
// time.Duration terms, collapsing consecutive congested intervals into
// episodes and recording freeze (POI) starts.
func convertAnalysis(a *core.Analysis) *ServerAnalysis {
	sa := &ServerAnalysis{
		Server:            a.Server,
		NStar:             a.NStar.NStar,
		TPMax:             a.NStar.TPMax,
		Saturated:         a.NStar.Saturated,
		CongestedFraction: a.CongestedFraction,
		Load:              a.Load.Values(),
		Throughput:        a.TP.Values(),
		Interval:          simnet.Std(a.Interval),
		WindowStart:       simnet.Std(simnet.Duration(a.Window.Start)),
	}
	startOf := func(i int) time.Duration {
		return simnet.Std(simnet.Duration(a.Load.IntervalStart(i)))
	}
	poiSet := make(map[int]bool, len(a.POIs))
	for _, idx := range a.POIs {
		poiSet[idx] = true
		sa.POITimes = append(sa.POITimes, startOf(idx))
	}
	inEpisode := false
	var ep Episode
	flush := func() {
		if inEpisode {
			sa.Episodes = append(sa.Episodes, ep)
			inEpisode = false
		}
	}
	for i, st := range a.States {
		if st == core.StateCongested {
			if !inEpisode {
				inEpisode = true
				ep = Episode{Start: startOf(i)}
			}
			ep.Length += sa.Interval
			if poiSet[i] {
				ep.Freeze = true
			}
		} else {
			flush()
		}
	}
	flush()
	return sa
}
