package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/stats"
	"transientbd/internal/trace"
)

func newOnlineForTest(t *testing.T, opts OnlineOptions) *Online {
	t.Helper()
	o, err := NewOnline(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewOnlineValidation(t *testing.T) {
	if _, err := NewOnline(0, OnlineOptions{WindowIntervals: 5}); err == nil {
		t.Error("want error for tiny window")
	}
	o, err := NewOnline(0, OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if o.window != 2400 || o.reperiod != 400 {
		t.Errorf("defaults = %d/%d, want 2400/400", o.window, o.reperiod)
	}
	// The defaults are trace time: 2 min and 20 s at any interval.
	o, err = NewOnline(0, OnlineOptions{Options: Options{Interval: 100 * ms}})
	if err != nil {
		t.Fatal(err)
	}
	if o.window != 1200 || o.reperiod != 200 {
		t.Errorf("defaults at 100ms = %d/%d, want 1200/200", o.window, o.reperiod)
	}
}

func TestOnlineAdvanceClosesIntervalsInOrder(t *testing.T) {
	o := newOnlineForTest(t, OnlineOptions{
		Options: Options{Interval: 50 * ms},
	})
	o.Observe(trace.Visit{Server: "s", Class: "q", Arrive: 10 * ms, Depart: 30 * ms})
	alerts := o.Advance(100 * ms)
	if len(alerts) != 2 {
		t.Fatalf("alerts = %d, want 2 (two closed 50ms intervals)", len(alerts))
	}
	if alerts[0].IntervalStart != 0 || alerts[1].IntervalStart != 50*ms {
		t.Errorf("interval starts = %v, %v", alerts[0].IntervalStart, alerts[1].IntervalStart)
	}
	// First interval: 20ms residence in 50ms → load 0.4 (idle-classified).
	if !almostEq(alerts[0].Load, 0.4) {
		t.Errorf("load = %v, want 0.4", alerts[0].Load)
	}
	if alerts[0].State != StateIdle {
		t.Errorf("state = %v, want idle (load < 0.5)", alerts[0].State)
	}
	// Advancing again with the same clock emits nothing.
	if again := o.Advance(100 * ms); len(again) != 0 {
		t.Errorf("re-advance emitted %d alerts", len(again))
	}
}

func TestOnlineLoadSpansIntervals(t *testing.T) {
	o := newOnlineForTest(t, OnlineOptions{Options: Options{Interval: 50 * ms}})
	// Visit spanning [25ms, 125ms): 25ms + 50ms + 25ms across 3 intervals.
	o.Observe(trace.Visit{Server: "s", Class: "q", Arrive: 25 * ms, Depart: 125 * ms})
	alerts := o.Advance(150 * ms)
	if len(alerts) != 3 {
		t.Fatalf("alerts = %d, want 3", len(alerts))
	}
	want := []float64{0.5, 1.0, 0.5}
	for i, w := range want {
		if !almostEq(alerts[i].Load, w) {
			t.Errorf("interval %d load = %v, want %v", i, alerts[i].Load, w)
		}
	}
}

// Feed the online analyzer the synthetic surging server and verify its
// classifications broadly agree with the batch pipeline on the suffix
// where the online N* has stabilized.
func TestOnlineMatchesBatchClassification(t *testing.T) {
	visits := synthServer(synthConfig{
		service:    5 * ms,
		cores:      2,
		baseRate:   240,
		surgeRate:  800,
		surgeEvery: 3 * simnet.Second,
		surgeLen:   300 * ms,
		horizon:    60 * simnet.Second,
		seed:       1,
	})
	w := Window{Start: 0, End: 60 * simnet.Second}
	batch, err := AnalyzeServer("s", visits, w, Options{})
	if err != nil {
		t.Fatal(err)
	}

	o := newOnlineForTest(t, OnlineOptions{
		Options:         Options{Interval: 50 * ms},
		ReestimateEvery: 200,
	})
	// Deliver visits in completion order with the clock advancing, as a
	// passive tracer would.
	sorted := make([]trace.Visit, len(visits))
	copy(sorted, visits)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Depart < sorted[j-1].Depart; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	online := make(map[simnet.Time]Alert)
	for _, v := range sorted {
		for _, a := range o.Advance(v.Depart - 200*ms) { // lag the clock: allow stragglers
			online[a.IntervalStart] = a
		}
		o.Observe(v)
	}
	for _, a := range o.Advance(60 * simnet.Second) {
		online[a.IntervalStart] = a
	}

	// Compare over the second half (online N* warmed up).
	agree, total, congestedBatch, congestedOnline := 0, 0, 0, 0
	for i := 600; i < batch.Load.Len(); i++ {
		st := batch.Load.IntervalStart(i)
		oa, ok := online[st]
		if !ok {
			continue
		}
		total++
		bCongested := batch.States[i] == StateCongested
		oCongested := oa.State == StateCongested
		if bCongested == oCongested {
			agree++
		}
		if bCongested {
			congestedBatch++
		}
		if oCongested {
			congestedOnline++
		}
	}
	if total < 500 {
		t.Fatalf("compared only %d intervals", total)
	}
	if frac := float64(agree) / float64(total); frac < 0.9 {
		t.Errorf("online/batch agreement = %.3f, want >= 0.9", frac)
	}
	if congestedOnline == 0 || congestedBatch == 0 {
		t.Errorf("congested counts batch=%d online=%d; both must detect the surges",
			congestedBatch, congestedOnline)
	}
}

func TestOnlineDetectsFreezePOI(t *testing.T) {
	visits := synthServer(synthConfig{
		service:     5 * ms,
		cores:       2,
		baseRate:    280,
		horizon:     30 * simnet.Second,
		freezeStart: 20 * simnet.Second,
		freezeEnd:   20*simnet.Second + 400*ms,
		seed:        3,
	})
	o := newOnlineForTest(t, OnlineOptions{
		Options:         Options{Interval: 50 * ms},
		ReestimateEvery: 100,
	})
	sorted := make([]trace.Visit, len(visits))
	copy(sorted, visits)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Depart < sorted[j-1].Depart; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var pois []Alert
	for _, v := range sorted {
		for _, a := range o.Advance(v.Depart - 200*ms) {
			if a.POI {
				pois = append(pois, a)
			}
		}
		o.Observe(v)
	}
	for _, a := range o.Advance(30 * simnet.Second) {
		if a.POI {
			pois = append(pois, a)
		}
	}
	if len(pois) == 0 {
		t.Fatal("online analyzer missed the freeze POIs")
	}
	for _, p := range pois {
		if p.IntervalStart < 19500*ms || p.IntervalStart > 21*simnet.Second {
			t.Errorf("POI at %v, want near the 20s freeze", p.IntervalStart)
		}
	}
}

func TestOnlineDropsStaleVisits(t *testing.T) {
	o := newOnlineForTest(t, OnlineOptions{
		Options:         Options{Interval: 50 * ms},
		WindowIntervals: 20,
	})
	// Fill the ring past wraparound: advance to interval 40.
	o.Advance(2 * simnet.Second)
	// A visit from interval 1 (long gone) must be ignored, not corrupt
	// slot state.
	o.Observe(trace.Visit{Server: "s", Class: "q", Arrive: 60 * ms, Depart: 70 * ms})
	// The slot for interval 1 (slot 1) should not have been overwritten
	// backward.
	if o.ringIdx[1] > 0 && o.ringIdx[1] < 21 {
		t.Errorf("stale visit corrupted ring slot: idx=%d", o.ringIdx[1])
	}
	// Negative-span visits are ignored.
	o.Observe(trace.Visit{Server: "s", Class: "q", Arrive: 10 * ms, Depart: 5 * ms})
}

func TestOnlineNStarAccessor(t *testing.T) {
	o := newOnlineForTest(t, OnlineOptions{Options: Options{Interval: 50 * ms}})
	if _, ok := o.NStar(); ok {
		t.Error("NStar available before any data")
	}
}

// §III-B: "the service time of each class of requests may drift over time
// (e.g., due to changes in the data selectivity) ... such service time
// approximations have to be recomputed accordingly." The online
// analyzer's windowed delay histograms must adapt: after the drift, classified
// throughput should again track load in unsaturated intervals.
func TestOnlineAdaptsToServiceTimeDrift(t *testing.T) {
	// Build a moderately loaded single-class server whose service time
	// grows 60% at t=30s (still unsaturated: ~70% utilization after).
	rng := simnet.NewRNG(11)
	var visits []trace.Visit
	var busy simnet.Time
	for at := simnet.Time(0); at < 60*simnet.Second; at += simnet.Duration(rng.Intn(16)+4) * ms {
		svc := 5 * ms
		if at >= 30*simnet.Second {
			svc = 8 * ms
		}
		start := at
		if busy > start {
			start = busy
		}
		end := start + svc
		busy = end
		visits = append(visits, trace.Visit{Server: "s", Class: "q", Arrive: at, Depart: end})
	}

	o := newOnlineForTest(t, OnlineOptions{
		Options:         Options{Interval: 50 * ms},
		WindowIntervals: 400, // 20s window: pre-drift samples age out
		ReestimateEvery: 100,
	})
	var alerts []Alert
	for _, v := range visits {
		alerts = append(alerts, o.Advance(v.Depart-200*ms)...)
		o.Observe(v)
	}
	alerts = append(alerts, o.Advance(60*simnet.Second)...)

	// After the drift settles (t > 45s), the server is still unsaturated
	// (~60-70% util), so congested classifications should stay rare.
	late := 0
	lateCongested := 0
	for _, a := range alerts {
		if a.IntervalStart > 45*simnet.Second {
			late++
			if a.State == StateCongested {
				lateCongested++
			}
		}
	}
	if late < 100 {
		t.Fatalf("late intervals = %d", late)
	}
	if frac := float64(lateCongested) / float64(late); frac > 0.5 {
		t.Errorf("post-drift congested fraction = %.3f; the detector failed to adapt", frac)
	}
	// The service estimate itself must have tracked the drift: the
	// last table came from the window's epochs, post-drift (~8ms) only.
	svc := o.svc["q"]
	if svc < 7*ms {
		t.Errorf("post-drift service estimate = %v, want near 8ms", simnet.Std(svc))
	}
}

// surgingServer is a 2-core, 5 ms server with a 300 ms surge every 3 s
// and one 400 ms freeze: idle, normal, congested and POI intervals all
// occur within its 30 s.
func surgingServer(seed int64) ([]trace.Visit, Window) {
	visits := synthServer(synthConfig{
		service:     5 * ms,
		cores:       2,
		baseRate:    240,
		surgeRate:   800,
		surgeEvery:  3 * simnet.Second,
		surgeLen:    300 * ms,
		horizon:     30 * simnet.Second,
		freezeStart: 10 * simnet.Second,
		freezeEnd:   10*simnet.Second + 400*ms,
		seed:        seed,
	})
	return visits, Window{Start: 0, End: 32 * simnet.Second}
}

// TestEnginesReturnEqualAnalysis is the engines' equality asserted where
// both live: the same visits, a calibrated table and a grid-aligned
// window give the same *Analysis from AnalyzeServer and from an Online
// whose window covers the stream — every field, series grid included —
// except Server, which an Online leaves to its owner.
func TestEnginesReturnEqualAnalysis(t *testing.T) {
	visits, w := surgingServer(3)
	opts := Options{Interval: 50 * ms, ServiceTimes: ServiceTimes{"q": 5 * ms}}

	batch, err := AnalyzeServer("s", visits, w, opts)
	if err != nil {
		t.Fatalf("AnalyzeServer: %v", err)
	}
	if batch.CongestedIntervals == 0 || len(batch.POIs) == 0 {
		t.Fatalf("workload exercises no congestion (%d congested, %d POIs): the comparison would be vacuous",
			batch.CongestedIntervals, len(batch.POIs))
	}
	o := newOnlineForTest(t, OnlineOptions{Options: opts, WindowIntervals: 4096})
	for _, v := range visits {
		o.Observe(v)
	}
	o.Advance(w.End)
	online := o.Snapshot()
	if online == nil {
		t.Fatal("online snapshot is nil")
	}
	if online.Server != "" {
		t.Errorf("Online.Snapshot set Server %q; naming it is the owner's job", online.Server)
	}
	online.Server = batch.Server
	if !reflect.DeepEqual(online, batch) {
		t.Errorf("engines disagree:\nonline %+v\nbatch  %+v", online, batch)
	}
}

// TestSnapshotLeavesOnlineUntouched: with self-estimated service times the
// table a completion is normalized with is refreshed on an observation
// count, so a Snapshot that refreshed it would make live classifications
// depend on when snapshots were taken. Interleaving Snapshot calls between
// observations must change neither the later alerts nor the final result.
func TestSnapshotLeavesOnlineUntouched(t *testing.T) {
	visits, w := surgingServer(4)
	sort.Slice(visits, func(i, j int) bool { return visits[i].Depart < visits[j].Depart })

	run := func(snapshotEvery int) ([]Alert, *Analysis) {
		o := newOnlineForTest(t, OnlineOptions{
			Options:         Options{Interval: 50 * ms},
			WindowIntervals: 4096,
			ReestimateEvery: 40,
		})
		var alerts []Alert
		for i, v := range visits {
			o.Observe(v)
			alerts = o.AdvanceAppend(v.Depart-100*ms, alerts)
			if snapshotEvery > 0 && i%snapshotEvery == 0 {
				o.Snapshot()
			}
		}
		return o.AdvanceAppend(w.End, alerts), o.Snapshot()
	}

	wantAlerts, want := run(0)
	congested := 0
	for _, a := range wantAlerts {
		if a.State == StateCongested {
			congested++
		}
	}
	if congested == 0 || len(want.ServiceTimes) == 0 {
		t.Fatalf("workload exercises nothing: %d congested alerts, service table %v", congested, want.ServiceTimes)
	}
	for _, every := range []int{1, 7, 500} {
		gotAlerts, got := run(every)
		if !reflect.DeepEqual(gotAlerts, wantAlerts) {
			t.Errorf("Snapshot every %d observations changed the live alerts", every)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Snapshot every %d observations changed the final snapshot", every)
		}
	}
}

// TestServiceTableMatchesSortedReference pins the self-estimated table.
// It is rebuilt only as an interval closes: at the first close, before
// the first N* whenever the delays counted have doubled since the last
// rebuild, and at every periodic N* re-estimation. At each rebuild every
// class's entry is exactly what EstimateServiceTimes makes of the visits
// the ring holds in the epochs the window overlaps, and within a bucket's
// width of a sort of their delays. The feed's 48 classes outlast the
// six-epoch ring. Halfway through, the analyzer is checkpointed and the
// feed goes on into a restored one.
func TestServiceTableMatchesSortedReference(t *testing.T) {
	const (
		classes, records = 48, 60_000
		iv               = 50 * ms
		gap              = 400 * simnet.Microsecond
	)
	opts := OnlineOptions{Options: Options{Interval: iv}, WindowIntervals: 200, ReestimateEvery: 40}
	rng := rand.New(rand.NewSource(11))
	o := newOnlineForTest(t, opts)
	var seen []trace.Visit
	early, periodic, restoredAt := 0, 0, 0
	check := func() {
		hadNStar, seenAt, table := o.hasNStar, o.seenAt, o.svc
		o.Advance(simnet.Time(o.closed+1) * iv)
		rebuilt := reflect.ValueOf(o.svc).Pointer() != reflect.ValueOf(table).Pointer()
		due := o.closed%40 == 0 || !hadNStar && o.seen > 0 && o.seen >= 2*seenAt
		if rebuilt != due {
			t.Fatalf("close %d (%d delays, %d at the last table, N* %v): rebuilt %v, want %v",
				o.closed, o.seen, seenAt, hadNStar, rebuilt, due)
		}
		if !rebuilt {
			return
		}
		if o.closed%40 == 0 {
			periodic++
		} else {
			early++
		}
		from := (o.closed - 200) / 40
		var in []trace.Visit
		delays := make(map[string][]float64)
		for _, v := range seen {
			e := max(o.intervalOf(v.Depart), 0) / 40
			if e >= from && o.epochIdx[e%int64(len(o.epochIdx))] == e {
				in = append(in, v)
				delays[v.Class] = append(delays[v.Class], float64(v.IntraNodeDelay()))
			}
		}
		want, err := EstimateServiceTimes(in, servicePercentile)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(o.svc, want) {
			t.Fatalf("close %d: table %v, EstimateServiceTimes over the window's epochs %v", o.closed, o.svc, want)
		}
		for class, ds := range delays {
			ref, _ := stats.Percentile(ds, servicePercentile)
			if d := math.Abs(float64(o.svc[class]) - ref); d > ref/16+1 {
				t.Fatalf("close %d: class %s at %d µs, sorted reference %.1f µs", o.closed, class, int64(o.svc[class]), ref)
			}
		}
	}
	for i := range records {
		c := rng.Intn(classes)
		depart := simnet.Time(i) * gap
		resid := simnet.Duration(200*(c%7+1)+10*rng.Intn(40)) * simnet.Microsecond
		v := trace.Visit{Server: "s", Class: fmt.Sprintf("c%02d", c), Arrive: depart - resid, Depart: depart}
		o.Observe(v)
		seen = append(seen, v)
		for simnet.Time(o.closed+1)*iv <= depart-iv {
			check()
		}
		if i == records/2 {
			blob, err := o.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			o = newOnlineForTest(t, opts)
			if err := o.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			restoredAt = periodic
		}
	}
	if len(o.hists) != classes || o.epochIdx[0] < int64(len(o.epochIdx)) || early < 3 || restoredAt < 4 || periodic-restoredAt < 4 {
		t.Fatalf("feed exercises too little: %d classes, epoch ring at %v, %d rebuilds before N*, %d periodic ones (%d before the restore)",
			len(o.hists), o.epochIdx, early, periodic, restoredAt)
	}
}

// TestPartialLastInterval pins how each engine treats a window that ends
// mid-interval, so that ROADMAP item 10 changes it on purpose: one 4 ms
// request every 5 ms over [0, 1025 ms) at 50 ms raw-throughput intervals.
// Batch builds 21 intervals; the last spans only 25 ms. Its load averages
// over the clipped span and reads the steady 0.8, but its throughput
// divides by the full 50 ms and reads 100/s against the steady 200/s.
// Online.Advance(1025 ms) closes only the 20 whole intervals.
func TestPartialLastInterval(t *testing.T) {
	const end = 1025 * ms
	opts := Options{Interval: 50 * ms, RawThroughput: true}
	var visits []trace.Visit
	for at := simnet.Time(0); at+4*ms <= end; at += 5 * ms {
		visits = append(visits, trace.Visit{Server: "s", Class: "c", Arrive: at, Depart: at + 4*ms})
	}

	a, err := AnalyzeServer("s", visits, Window{Start: 0, End: end}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Load.Len(); got != 21 {
		t.Fatalf("batch intervals = %d, want 21 (20 whole, 1 partial)", got)
	}
	for _, i := range []int{19, 20} {
		if got := a.Load.Value(i); !almostEq(got, 0.8) {
			t.Errorf("batch load[%d] = %v, want 0.8", i, got)
		}
	}
	if got := a.TP.Value(19); !almostEq(got, 200) {
		t.Errorf("batch tp[19] = %v, want the steady 200/s", got)
	}
	if got := a.TP.Value(20); !almostEq(got, 100) {
		t.Errorf("batch tp[20] = %v, want 100/s (5 completions over the full 50 ms)", got)
	}

	o := newOnlineForTest(t, OnlineOptions{Options: opts})
	for _, v := range visits {
		o.Observe(v)
	}
	o.Advance(end)
	if got := o.IntervalsClosed(); got != 20 {
		t.Fatalf("online intervals closed = %d, want 20 (the partial one stays open)", got)
	}
	snap := o.Snapshot()
	if got := snap.Load.Len(); got != 20 {
		t.Errorf("online snapshot intervals = %d, want 20", got)
	}
	if load, tp := snap.Load.Value(19), snap.TP.Value(19); !almostEq(load, 0.8) || !almostEq(tp, 200) {
		t.Errorf("online interval 19 = load %v, tp %v; want 0.8 and 200/s", load, tp)
	}
}
