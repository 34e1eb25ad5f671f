package core

import (
	"fmt"

	"transientbd/internal/simnet"
	"transientbd/internal/stats"
	"transientbd/internal/trace"
)

// Online is the streaming counterpart of AnalyzeServer for one server: it
// ingests visits as they complete (the order a passive tracer emits them)
// and classifies monitoring intervals incrementally with bounded memory.
// The congestion point N* is re-estimated periodically from the sliding
// window, so the detector adapts to drifting service times — the
// recomputation the paper calls for in §III-B.
//
// Online is single-writer: Observe, Advance and NStar share the ring and
// reservoir state with no internal locking, so all calls must come from
// one goroutine (or be externally serialized). Independent Online values
// — one per server — may of course run on different goroutines; that is
// the sharding axis the batch pipeline parallelizes over too.
type Online struct {
	opts     Options
	window   int // ring size, in intervals
	reperiod int // N* refresh period, in intervals

	start  simnet.Time // start of interval 0
	closed int64       // count of closed intervals

	// Ring state, indexed by interval number mod window.
	loadTime []float64 // resident microseconds per interval
	units    []float64 // completed work units per interval
	ringIdx  []int64   // which absolute interval the slot holds

	// Per-class service-time reservoirs.
	reservoirs map[string]*reservoir

	nstar       NStarResult
	hasNStar    bool
	reestimates int64

	// Reused scratch, so the steady-state Observe/Advance path allocates
	// nothing (the allocation-budget contract in PERFORMANCE.md, pinned
	// by TestOnlineObserveAllocBudget): pts backs reestimate's point set,
	// svcSorted is the copy of a reservoir serviceTable selects in. The
	// reservoir must keep its arrival order for eviction, and a selection
	// may reorder what it is given: Select always, SelectNear only when
	// its guess is too far off and it falls back to Select.
	ptsScratch []Point
	svcSorted  []float64

	// fixedSvc, when non-nil, is a calibrated service-time table supplied
	// at construction: normalization uses it verbatim and the reservoirs
	// stay empty, exactly mirroring a batch pass with the same table.
	fixedSvc ServiceTimes

	// Cached normalization inputs, refreshed every svcRefresh
	// observations: recomputing the per-class percentile table on every
	// completion would re-select every reservoir's percentile per record.
	cachedSvc  ServiceTimes
	cachedUnit simnet.Duration
	sinceSvc   int
}

// Alert reports one closed interval's classification.
type Alert struct {
	// IntervalStart is the interval's start time.
	IntervalStart simnet.Time
	// Load and TP are the interval's measurements (TP in work units/s).
	Load, TP float64
	// State is the classification; POI marks a congested interval with
	// near-zero throughput.
	State IntervalState
	POI   bool
}

// OnlineOptions configures the streaming analyzer.
type OnlineOptions struct {
	// Options embeds the batch analysis knobs (interval, thresholds, N*,
	// calibrated service times).
	Options
	// WindowIntervals is the sliding window size in intervals. Default
	// DefaultWindow at the interval (2400 at 50 ms).
	WindowIntervals int
	// ReestimateEvery is how many closed intervals pass between N*
	// refreshes. Default DefaultReestimate at the interval (400 at
	// 50 ms), at least one.
	ReestimateEvery int
}

// The online defaults are trace time, so every interval length slides
// and re-estimates on the same clock.
const (
	// DefaultWindow is the sliding window N* is estimated over.
	DefaultWindow = 2 * simnet.Minute
	// DefaultReestimate is the trace time between N* refreshes.
	DefaultReestimate = 20 * simnet.Second
)

// reservoirSize bounds per-class service-time memory, in samples.
const reservoirSize = 256

// reservoir keeps the most recent reservoirSize intra-node delays for one
// class, so the service-time estimate tracks drift (§III-B: "such service
// time approximations have to be recomputed accordingly") instead of
// being anchored to history.
type reservoir struct {
	samples []float64
	next    int
	// est is the sample the last refresh selected, the guess the next one
	// starts from once seeded. It is not checkpointed: a restored
	// reservoir's first refresh selects from scratch.
	est    float64
	seeded bool
}

func (r *reservoir) add(v float64) {
	if len(r.samples) < reservoirSize {
		r.samples = append(r.samples, v)
		return
	}
	r.samples[r.next] = v
	r.next = (r.next + 1) % reservoirSize
}

// NewOnline creates a streaming analyzer whose interval grid starts at
// start (typically the measurement window start).
func NewOnline(start simnet.Time, opts OnlineOptions) (*Online, error) {
	opts.Options.applyDefaults()
	if opts.WindowIntervals <= 0 {
		opts.WindowIntervals = int(DefaultWindow / opts.Interval)
	}
	if err := CheckIntervals(int64(opts.WindowIntervals), MinWindowIntervals); err != nil {
		return nil, fmt.Errorf("core: online %w", err)
	}
	if opts.ReestimateEvery <= 0 {
		opts.ReestimateEvery = max(1, int(DefaultReestimate/opts.Interval))
	}
	o := &Online{
		opts:       opts.Options,
		window:     opts.WindowIntervals,
		reperiod:   opts.ReestimateEvery,
		start:      start,
		loadTime:   make([]float64, opts.WindowIntervals),
		units:      make([]float64, opts.WindowIntervals),
		ringIdx:    make([]int64, opts.WindowIntervals),
		reservoirs: make(map[string]*reservoir),
	}
	if len(opts.ServiceTimes) > 0 {
		o.fixedSvc = opts.ServiceTimes
	}
	for i := range o.ringIdx {
		o.ringIdx[i] = -1
	}
	return o, nil
}

// Observe ingests one completed visit. Visits whose span predates the
// sliding window are dropped.
func (o *Online) Observe(v trace.Visit) {
	if v.Depart < v.Arrive {
		return
	}
	// Service-time reservoir — skipped when a calibrated table was
	// supplied (normalization is fixed) or under raw throughput (no
	// normalization at all).
	if o.fixedSvc == nil && !o.opts.RawThroughput {
		res := o.reservoirs[v.Class]
		if res == nil {
			res = &reservoir{}
			o.reservoirs[v.Class] = res
		}
		res.add(float64(v.IntraNodeDelay()))
		o.sinceSvc++
	}

	iv := o.opts.Interval
	// Distribute residence across intervals (time-weighted load).
	first := o.intervalOf(v.Arrive)
	last := o.intervalOf(v.Depart)
	for n := first; n <= last; n++ {
		if n < 0 {
			continue
		}
		s := o.start + simnet.Time(n)*iv
		e := s + iv
		lo, hi := v.Arrive, v.Depart
		if s > lo {
			lo = s
		}
		if e < hi {
			hi = e
		}
		if hi > lo {
			o.add(n, float64(hi-lo), 0)
		}
	}
	// Completion units at the departure interval: one raw request, or its
	// class's work-unit count — the same accounting as ThroughputSeries /
	// NormalizedThroughputSeries in the batch path.
	if last >= 0 {
		if o.opts.RawThroughput {
			o.add(last, 0, 1)
		} else {
			svc, unit := o.normalization()
			o.add(last, 0, svc.Units(v.Class, unit))
		}
	}
}

// svcRefresh is how many observations pass between service-table
// recomputations.
const svcRefresh = 1024

// normalization returns the (cached) service table and work-unit size.
// With a calibrated table the cache is computed once and never refreshed.
func (o *Online) normalization() (ServiceTimes, simnet.Duration) {
	if o.fixedSvc != nil {
		if o.cachedSvc == nil {
			o.cachedSvc = o.fixedSvc
			o.cachedUnit = WorkUnit(o.cachedSvc)
		}
		return o.cachedSvc, o.cachedUnit
	}
	if o.cachedSvc == nil || o.sinceSvc >= svcRefresh {
		o.cachedSvc = o.serviceTable()
		o.cachedUnit = 100 * simnet.Microsecond
		if len(o.cachedSvc) > 0 {
			o.cachedUnit = WorkUnit(o.cachedSvc)
		}
		o.sinceSvc = 0
	}
	return o.cachedSvc, o.cachedUnit
}

func (o *Online) intervalOf(t simnet.Time) int64 {
	if t < o.start {
		return -1
	}
	return int64((t - o.start) / o.opts.Interval)
}

func (o *Online) add(n int64, loadMicros, units float64) {
	if n < o.closed {
		return // interval already closed and reported: too late
	}
	slot := int(n % int64(o.window))
	if o.ringIdx[slot] != n {
		if o.ringIdx[slot] > n {
			return // older than the ring's current occupant: too late
		}
		o.ringIdx[slot] = n
		o.loadTime[slot] = 0
		o.units[slot] = 0
	}
	o.loadTime[slot] += loadMicros
	o.units[slot] += units
}

func (o *Online) serviceTable() ServiceTimes {
	svc := make(ServiceTimes, len(o.reservoirs))
	for class, r := range o.reservoirs {
		if len(r.samples) == 0 {
			continue
		}
		o.svcSorted = append(o.svcSorted[:0], r.samples...)
		idx := min(int(float64(len(r.samples))*servicePercentile/100), len(r.samples)-1)
		if r.seeded {
			r.est = stats.SelectNear(o.svcSorted, idx, r.est)
		} else {
			r.est, r.seeded = stats.Select(o.svcSorted, idx), true
		}
		svc[class] = simnet.Duration(max(r.est, 1))
	}
	return svc
}

// Advance closes every interval that ends at or before now and returns
// their classifications in order. Call it periodically (e.g. once per
// interval) with the tracer's clock.
//
// Advance is bounded: when now jumps more than a window's worth of
// intervals ahead of the last closure (a feed catching up after a stall,
// or a hostile far-future timestamp), the intervals that have already
// fallen out of the sliding window are summarily closed without a report
// — the ring has no memory of them, and emitting billions of idle alerts
// would turn one bad timestamp into a denial of service. At most
// WindowIntervals alerts are returned per call.
func (o *Online) Advance(now simnet.Time) []Alert {
	return o.AdvanceAppend(now, nil)
}

// AdvanceAppend is Advance appending into alerts, the allocation-free
// form for callers that own a reusable buffer (pass buf[:0] each call):
// the sharded stream runtime closes every server's intervals at every
// watermark barrier through this path without allocating in steady
// state. Same semantics and bounds as Advance otherwise.
func (o *Online) AdvanceAppend(now simnet.Time, alerts []Alert) []Alert {
	iv := o.opts.Interval
	if now > o.start {
		target := int64((now - o.start) / iv)
		if target-o.closed > int64(o.window) {
			o.closed = target - int64(o.window)
		}
	}
	for {
		end := o.start + simnet.Time(o.closed+1)*iv
		if end > now {
			break
		}
		n := o.closed
		o.closed++
		slot := int(n % int64(o.window))
		var load, tp float64
		if o.ringIdx[slot] == n {
			load = o.loadTime[slot] / float64(iv)
			tp = o.units[slot] / iv.Seconds()
		}
		if o.closed%int64(o.reperiod) == 0 || (!o.hasNStar && o.closed >= int64(o.reperiod)/2) {
			o.reestimate()
		}
		alert := Alert{IntervalStart: o.start + simnet.Time(n)*iv, Load: load, TP: tp}
		switch {
		case load < minIdleLoad:
			alert.State = StateIdle
		case o.hasNStar && load > o.nstar.NStar:
			alert.State = StateCongested
			alert.POI = tp < o.opts.POIFraction*o.nstar.TPMax
		default:
			alert.State = StateNormal
		}
		alerts = append(alerts, alert)
	}
	return alerts
}

// reestimate refreshes N* from the intervals currently in the ring. The
// point set lives in reused scratch, so periodic refreshes do not grow a
// fresh slice each time.
func (o *Online) reestimate() {
	pts := o.ptsScratch[:0]
	iv := o.opts.Interval
	for slot, n := range o.ringIdx {
		if n < 0 || n >= o.closed {
			continue
		}
		pts = append(pts, Point{
			Load: o.loadTime[slot] / float64(iv),
			TP:   o.units[slot] / iv.Seconds(),
		})
	}
	o.ptsScratch = pts[:0]
	res, err := EstimateNStar(pts, o.opts.NStar)
	if err != nil {
		return // not enough data yet; keep the previous estimate
	}
	o.nstar = res
	o.hasNStar = true
	o.reestimates++
}

// NStar returns the current congestion-point estimate and whether one has
// been computed yet.
func (o *Online) NStar() (NStarResult, bool) {
	return o.nstar, o.hasNStar
}

// Reestimates reports how many times N* has been refreshed so far.
func (o *Online) Reestimates() int64 { return o.reestimates }

// IntervalsClosed reports how many intervals Advance has closed so far.
func (o *Online) IntervalsClosed() int64 { return o.closed }

// Snapshot reclassifies every closed interval still inside the sliding
// window using an N* estimated from all of them at once — the batch
// decision procedure applied to the window's contents, reported as the
// same Analysis AnalyzeServer returns (Server left for the owner to set).
// When the window still covers the whole stream, the result is
// bit-identical to what AnalyzeServer computes over the same visits (same
// load splitting, same unit accounting, then the same newAnalysis),
// independent of ingestion order. This is the authoritative
// per-interval verdict surface; the live Advance alerts are the
// provisional real-time view.
//
// Snapshot returns nil until at least one interval has closed. Every call
// builds its own series, so a snapshot may be published to other
// goroutines while the analyzer keeps running. ServiceTimes and Unit are
// read, never refreshed: a refresh here would make the table later
// observations meet depend on when snapshots were taken.
func (o *Online) Snapshot() *Analysis {
	lo := o.closed - int64(o.window)
	if lo < 0 {
		lo = 0
	}
	n := int(o.closed - lo)
	if n <= 0 {
		return nil
	}
	iv := o.opts.Interval
	load := make([]float64, n)
	tp := make([]float64, n)
	for i := 0; i < n; i++ {
		abs := lo + int64(i)
		slot := int(abs % int64(o.window))
		if o.ringIdx[slot] == abs {
			load[i] = o.loadTime[slot] / float64(iv)
			tp[i] = o.units[slot] / iv.Seconds()
		}
	}
	start := o.start + simnet.Time(lo)*iv
	// The error is unreachable: the series have equal lengths by construction.
	a, _ := newAnalysis("", Window{Start: start, End: start + simnet.Time(n)*iv}, load, tp, o.cachedSvc, o.cachedUnit, o.opts)
	return a
}
