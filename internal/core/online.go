package core

import (
	"fmt"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// Online is the streaming counterpart of AnalyzeServer for one server: it
// ingests visits as they complete (the order a passive tracer emits them)
// and classifies monitoring intervals incrementally with bounded memory.
// The congestion point N* is re-estimated periodically from the sliding
// window, and so is the self-estimated service-time table each completion
// is normalized with, so the detector adapts to drifting service times —
// the recomputation the paper calls for in §III-B. The table comes from
// per-class delay histograms of the window's re-estimation epochs, and is
// rebuilt only as intervals close: which table a completion meets depends
// on the barriers the feed was advanced at, not on the order of the
// completions between two of them.
//
// Online is single-writer: Observe, Advance and NStar share the ring and
// histogram state with no internal locking, so all calls must come from
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
	work     []float64 // completed work per interval: µs of service time, or completions under RawThroughput
	ringIdx  []int64   // which absolute interval the slot holds

	// The self-estimator, nil with a calibrated table or under
	// RawThroughput: per class, one delayHist per re-estimation epoch
	// (departure interval ÷ reperiod), laid end to end in a ring of
	// window/reperiod + 1 epochs whose slots epochIdx tags. seen counts
	// the delays added, seenAt what it was at the last table rebuild.
	hists    map[string]delayHist
	epochIdx []int64
	seen     int64
	seenAt   int64

	// svc is the table each completion is normalized with as it is
	// observed: the calibrated one supplied at construction, used verbatim
	// so a run mirrors a batch pass with the same table, or the
	// self-estimated one, nil until the first interval closes.
	svc ServiceTimes

	nstar       NStarResult
	hasNStar    bool
	reestimates int64

	// ptsScratch backs reestimate's point set, so the steady-state
	// Observe/Advance path allocates nothing (the allocation-budget
	// contract in PERFORMANCE.md, pinned by TestOnlineObserveAllocBudget).
	ptsScratch []Point
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
		opts:     opts.Options,
		window:   opts.WindowIntervals,
		reperiod: opts.ReestimateEvery,
		start:    start,
		loadTime: make([]float64, opts.WindowIntervals),
		work:     make([]float64, opts.WindowIntervals),
		ringIdx:  make([]int64, opts.WindowIntervals),
	}
	switch {
	case len(opts.ServiceTimes) > 0:
		o.svc = opts.ServiceTimes
	case !opts.RawThroughput:
		o.hists = make(map[string]delayHist)
		o.epochIdx = make([]int64, opts.WindowIntervals/opts.ReestimateEvery+1)
		for i := range o.epochIdx {
			o.epochIdx[i] = -1
		}
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
	iv := o.opts.Interval
	first := o.intervalOf(v.Arrive)
	last := o.intervalOf(v.Depart)
	if o.hists != nil {
		o.count(v, last)
	}
	// Distribute residence across intervals (time-weighted load).
	for n := first; n <= last; n++ {
		if n < 0 {
			continue
		}
		s := o.start + simnet.Time(n)*iv
		lo, hi := max(v.Arrive, s), min(v.Depart, s+iv)
		if hi > lo {
			o.add(n, float64(hi-lo), 0)
		}
	}
	// The completion at the departure interval: one raw request, or its
	// class's work — the same accounting as ThroughputSeries /
	// NormalizedThroughputSeries in the batch path.
	if last >= 0 {
		credit := 1.0
		if !o.opts.RawThroughput {
			credit = float64(o.svc.work(v.Class, workQuantum))
		}
		o.add(last, 0, credit)
	}
}

// count adds v's intra-node delay to its class's histogram for the epoch
// of its departure interval last, first clearing the epoch's ring slot
// for every class if it still holds an older epoch.
func (o *Online) count(v trace.Visit, last int64) {
	e := max(last, 0) / int64(o.reperiod)
	slot := int(e % int64(len(o.epochIdx)))
	switch {
	case o.epochIdx[slot] > e:
		return // the epoch has left the ring
	case o.epochIdx[slot] < e:
		o.epochIdx[slot] = e
		for _, h := range o.hists {
			clear(h[slot*histBuckets : (slot+1)*histBuckets])
		}
	}
	h := o.hists[v.Class]
	if h == nil {
		h = make(delayHist, len(o.epochIdx)*histBuckets)
		o.hists[v.Class] = h
	}
	h[slot*histBuckets:].add(v.IntraNodeDelay())
	o.seen++
}

// rebuildTable re-estimates every class's service time from the sum of
// its epochs that overlap the window. The table is a new map, so the one a
// published snapshot holds never changes.
func (o *Online) rebuildTable() {
	from := (o.closed - int64(o.window)) / int64(o.reperiod)
	svc := make(ServiceTimes, len(o.hists))
	sum := make(delayHist, histBuckets)
	for class, h := range o.hists {
		clear(sum)
		for slot, e := range o.epochIdx {
			if e >= from {
				for i, c := range h[slot*histBuckets : (slot+1)*histBuckets] {
					sum[i] += c
				}
			}
		}
		if d, ok := sum.serviceTime(servicePercentile); ok {
			svc[class] = d
		}
	}
	o.svc, o.seenAt = svc, o.seen
}

func (o *Online) intervalOf(t simnet.Time) int64 {
	if t < o.start {
		return -1
	}
	return int64((t - o.start) / o.opts.Interval)
}

func (o *Online) add(n int64, loadMicros, work float64) {
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
		o.work[slot] = 0
	}
	o.loadTime[slot] += loadMicros
	o.work[slot] += work
}

// point returns the load and throughput of the interval in ring slot,
// computed as the batch series compute them.
func (o *Online) point(slot int) Point {
	iv := o.opts.Interval
	units := o.work[slot]
	if !o.opts.RawThroughput {
		units *= 1 / float64(workQuantum)
	}
	return Point{Load: o.loadTime[slot] / float64(iv), TP: units / iv.Seconds()}
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
		var p Point
		if o.ringIdx[slot] == n {
			p = o.point(slot)
		}
		// The table is rebuilt with every periodic N* re-estimation and,
		// until the first N*, whenever the delays counted have doubled.
		periodic := o.closed%int64(o.reperiod) == 0
		if o.hists != nil && (periodic || !o.hasNStar && o.seen > 0 && o.seen >= 2*o.seenAt) {
			o.rebuildTable()
		}
		if periodic || (!o.hasNStar && o.closed >= int64(o.reperiod)/2) {
			o.reestimate()
		}
		alert := Alert{IntervalStart: o.start + simnet.Time(n)*iv, Load: p.Load, TP: p.TP}
		switch {
		case p.Load < minIdleLoad:
			alert.State = StateIdle
		case o.hasNStar && p.Load > o.nstar.NStar:
			alert.State = StateCongested
			alert.POI = p.TP < o.opts.POIFraction*o.nstar.TPMax
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
	for slot, n := range o.ringIdx {
		if n < 0 || n >= o.closed {
			continue
		}
		pts = append(pts, o.point(slot))
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
// goroutines while the analyzer keeps running. ServiceTimes is the table
// completions are being normalized with, read and never rebuilt: a
// rebuild here would make the table later observations meet depend on
// when snapshots were taken.
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
			p := o.point(slot)
			load[i], tp[i] = p.Load, p.TP
		}
	}
	start := o.start + simnet.Time(lo)*iv
	// The error is unreachable: the series have equal lengths by construction.
	a, _ := newAnalysis("", Window{Start: start, End: start + simnet.Time(n)*iv}, load, tp, o.svc, workQuantum, o.opts)
	return a
}
