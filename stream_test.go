package transientbd

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// The equivalence harness: the sharded online runtime and the batch
// Analyze path must produce identical per-interval classifications for
// the same records — at any shard count and any input interleaving. The
// oracle is the same one PR 1 used for worker counts, extended into the
// streaming domain: batch output is the reference, the runtime must
// reproduce it bit-for-bit.
//
// Two conditions make bit-equality attainable rather than approximate
// (see internal/stream's package comment):
//   - a calibrated service-time table shared by both paths (the paper's
//     low-load calibration pass), so normalization does not depend on
//     what each path happened to observe first;
//   - a FlushLag longer than the trace span in this harness, so no
//     interval seals before a shuffled straggler lands (arbitrary
//     interleaving means unbounded reordering skew).

// streamServiceTimes is the calibrated per-class table every harness
// workload draws residences from. The entries are multiples of a common
// 2 ms unit, so work-unit counts are small exact integers and float
// summation is exact in both paths.
var streamServiceTimes = map[string]time.Duration{
	"small": 2 * time.Millisecond,
	"mid":   4 * time.Millisecond,
	"big":   8 * time.Millisecond,
}

var streamClasses = []struct {
	name string
	svc  time.Duration
}{
	{"small", 2 * time.Millisecond},
	{"mid", 4 * time.Millisecond},
	{"big", 8 * time.Millisecond},
}

// usDur quantizes to the microsecond grid shared by both paths, so the
// generator cannot produce sub-microsecond timestamps that the internal
// conversion would truncate.
func usDur(us int64) time.Duration { return time.Duration(us) * time.Microsecond }

// burstyWorkload is a three-tier system with a steady background trickle
// everywhere and heavy request bursts at the middle tier: the paper's
// transient-bottleneck shape (short congestion episodes against a mostly
// normal baseline).
func burstyWorkload(seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	var recs []Record
	const spanUS = int64(20e6) // 20 s
	for _, server := range []string{"web", "app", "db"} {
		for t := int64(0); t < spanUS; t += 10_000 {
			c := streamClasses[rng.Intn(len(streamClasses))]
			arrive := t + rng.Int63n(5_000)
			recs = append(recs, Record{
				Server: server,
				Class:  c.name,
				Arrive: usDur(arrive),
				Depart: usDur(arrive) + c.svc + usDur(rng.Int63n(2_000)),
			})
		}
	}
	for b := 0; b < 8; b++ {
		start := rng.Int63n(spanUS - int64(1e6))
		for i := 0; i < 60; i++ {
			arrive := start + rng.Int63n(100_000)
			recs = append(recs, Record{
				Server: "app",
				Class:  "big",
				Arrive: usDur(arrive),
				Depart: usDur(arrive) + 200*time.Millisecond,
			})
		}
	}
	return recs
}

// uniformWorkload spreads random residences across six servers — no
// structure, just volume, exercising the hash partitioning and merge
// across a wider server set.
func uniformWorkload(seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	var recs []Record
	const spanUS = int64(15e6) // 15 s
	for i := 0; i < 5000; i++ {
		c := streamClasses[rng.Intn(len(streamClasses))]
		arrive := rng.Int63n(spanUS)
		recs = append(recs, Record{
			Server: fmt.Sprintf("node-%d", rng.Intn(6)),
			Class:  c.name,
			Arrive: usDur(arrive),
			Depart: usDur(arrive) + c.svc + usDur(rng.Int63n(300_000)),
		})
	}
	return recs
}

// rampWorkload ramps one server's concurrency from idle to saturated —
// the knee-curve shape N* estimation keys on — next to a sparse server
// that never leaves idle (exercising the ErrNoPoints fallback) and a
// server with a single record (the degenerate edge).
func rampWorkload(seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	var recs []Record
	for step := int64(0); step < 100; step++ {
		t := step * 100_000 // every 100 ms
		depth := int(step/10) + 1
		for i := 0; i < depth; i++ {
			arrive := t + rng.Int63n(20_000)
			recs = append(recs, Record{
				Server: "ramp",
				Class:  "mid",
				Arrive: usDur(arrive),
				Depart: usDur(arrive) + usDur(40_000+rng.Int63n(20_000)),
			})
		}
	}
	for t := int64(0); t < int64(10e6); t += 1_000_000 {
		recs = append(recs, Record{
			Server: "sparse",
			Class:  "small",
			Arrive: usDur(t),
			Depart: usDur(t) + 2*time.Millisecond,
		})
	}
	recs = append(recs, Record{
		Server: "lone",
		Class:  "big",
		Arrive: usDur(777),
		Depart: usDur(777) + 8*time.Millisecond,
	})
	return recs
}

var streamWorkloads = []struct {
	name string
	gen  func(int64) []Record
}{
	{"bursty", burstyWorkload},
	{"uniform", uniformWorkload},
	{"ramp", rampWorkload},
}

// alignedWindowEnd returns the batch window end rounded up to the next
// interval boundary, matching the watermark the runtime's Close advances
// to: with both ends on the same grid point the two paths cover the same
// interval count.
func alignedWindowEnd(recs []Record, interval time.Duration) time.Duration {
	var max time.Duration
	for _, r := range recs {
		if r.Depart > max {
			max = r.Depart
		}
	}
	return (max/interval + 1) * interval
}

// batchReference analyzes recs through the batch path with the harness
// calibration, serving as the oracle.
func batchReference(t *testing.T, recs []Record) *Report {
	t.Helper()
	report, err := Analyze(recs, Config{
		ServiceTimes: streamServiceTimes,
		WindowEnd:    alignedWindowEnd(recs, 50*time.Millisecond),
	})
	if err != nil {
		t.Fatalf("batch Analyze: %v", err)
	}
	return report
}

// streamReport feeds recs (in the given order) through a sharded runtime
// and returns the final report. The window covers the whole trace and
// FlushLag exceeds its span, so nothing seals early whatever the
// interleaving.
func streamReport(t *testing.T, recs []Record, shards int) *Report {
	t.Helper()
	st, err := NewStream(StreamConfig{
		OnlineConfig: OnlineConfig{
			Window:       20 * time.Minute,
			ServiceTimes: streamServiceTimes,
		},
		Shards:   shards,
		FlushLag: time.Hour,
	})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	done := make(chan int)
	go func() {
		n := 0
		for range st.Alerts() {
			n++
		}
		done <- n
	}()
	for i, r := range recs {
		if err := st.Observe(r); err != nil {
			t.Errorf("Observe record %d: %v", i, err)
		}
	}
	report := st.Close()
	<-done
	return report
}

func compareReports(t *testing.T, want, got *Report) {
	t.Helper()
	if got == nil {
		t.Fatalf("stream report is nil")
	}
	if len(got.PerServer) != len(want.PerServer) {
		t.Fatalf("server count: stream %d, batch %d", len(got.PerServer), len(want.PerServer))
	}
	for name, w := range want.PerServer {
		g, ok := got.PerServer[name]
		if !ok {
			t.Errorf("server %q missing from stream report", name)
			continue
		}
		if g.NStar != w.NStar || g.TPMax != w.TPMax || g.Saturated != w.Saturated {
			t.Errorf("%s: N* (%v,%v,%v) != batch (%v,%v,%v)",
				name, g.NStar, g.TPMax, g.Saturated, w.NStar, w.TPMax, w.Saturated)
		}
		if g.CongestedFraction != w.CongestedFraction {
			t.Errorf("%s: congested fraction %v != batch %v", name, g.CongestedFraction, w.CongestedFraction)
		}
		if !reflect.DeepEqual(g.Load, w.Load) {
			t.Errorf("%s: load series diverges (len %d vs %d)", name, len(g.Load), len(w.Load))
		}
		if !reflect.DeepEqual(g.Throughput, w.Throughput) {
			t.Errorf("%s: throughput series diverges (len %d vs %d)", name, len(g.Throughput), len(w.Throughput))
		}
		if !reflect.DeepEqual(g.Episodes, w.Episodes) {
			t.Errorf("%s: episodes %v != batch %v", name, g.Episodes, w.Episodes)
		}
		if !reflect.DeepEqual(g.POITimes, w.POITimes) {
			t.Errorf("%s: POI times %v != batch %v", name, g.POITimes, w.POITimes)
		}
		if g.Interval != w.Interval || g.WindowStart != w.WindowStart {
			t.Errorf("%s: grid (%v,%v) != batch (%v,%v)", name, g.Interval, g.WindowStart, w.Interval, w.WindowStart)
		}
	}
	for i := range want.Ranking {
		if i >= len(got.Ranking) || got.Ranking[i].Server != want.Ranking[i].Server {
			t.Errorf("ranking[%d]: stream has %q, batch has %q", i, rankName(got.Ranking, i), want.Ranking[i].Server)
		}
	}
	// Root-cause verdicts ride the same contract: batch and stream must
	// attribute the same feed field-identically, Evidence strings included.
	if !reflect.DeepEqual(got.Causes, want.Causes) {
		t.Errorf("cause verdicts diverge:\nstream %+v\nbatch  %+v", got.Causes, want.Causes)
	}
}

func rankName(rs []*ServerAnalysis, i int) string {
	if i >= len(rs) {
		return "<missing>"
	}
	return rs[i].Server
}

// TestStreamBatchEquivalence is the headline harness: for every workload,
// shard count, GOMAXPROCS setting and interleaving, the runtime's final
// report must equal the batch report bit-for-bit. The GOMAXPROCS
// dimension matters because the shard goroutines really interleave
// differently at 1 and 4 procs — true parallelism must not change a
// single bit of the result (the race detector covers memory safety in
// CI's race-enabled run of this same harness; this covers determinism).
func TestStreamBatchEquivalence(t *testing.T) {
	entryProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(entryProcs)
	for _, wl := range streamWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			recs := wl.gen(42)
			want := batchReference(t, recs)
			for _, procs := range []int{1, 4} {
				for _, shards := range []int{1, 4, 8} {
					for _, order := range []struct {
						name    string
						shuffle int64 // 0 = feed order (generator order)
					}{
						{"feed-order", 0},
						{"shuffled-a", 1},
						{"shuffled-b", 99},
					} {
						t.Run(fmt.Sprintf("procs=%d/shards=%d/%s", procs, shards, order.name), func(t *testing.T) {
							feed := recs
							if order.shuffle != 0 {
								feed = append([]Record(nil), recs...)
								rand.New(rand.NewSource(order.shuffle)).Shuffle(len(feed), func(i, j int) {
									feed[i], feed[j] = feed[j], feed[i]
								})
							}
							runtime.GOMAXPROCS(procs)
							defer runtime.GOMAXPROCS(entryProcs)
							compareReports(t, want, streamReport(t, feed, shards))
						})
					}
				}
			}
		})
	}
}

// TestStreamAlertDeterminism pins the live alert stream down: fed in
// departure order with an adequate FlushLag, the merged stream is
// globally ordered by (time, server) and identical at every shard count.
func TestStreamAlertDeterminism(t *testing.T) {
	recs := burstyWorkload(7)
	// Departure order is how a passive tracer emits completions.
	sortRecords(recs)
	var reference []OnlineAlert
	for _, shards := range []int{1, 4, 8} {
		st, err := NewStream(StreamConfig{
			OnlineConfig: OnlineConfig{
				Window:       20 * time.Minute,
				ServiceTimes: streamServiceTimes,
			},
			Shards: shards,
			// Max residence in burstyWorkload is 200 ms; half a second of
			// lag gives stragglers room without deferring all closes.
			FlushLag: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewStream: %v", err)
		}
		var alerts []OnlineAlert
		done := make(chan struct{})
		go func() {
			defer close(done)
			for a := range st.Alerts() {
				alerts = append(alerts, a)
			}
		}()
		for _, r := range recs {
			if err := st.Observe(r); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
		st.Close()
		<-done
		if len(alerts) == 0 {
			t.Fatalf("shards=%d: no alerts", shards)
		}
		for i := 1; i < len(alerts); i++ {
			a, b := alerts[i-1], alerts[i]
			if b.Time < a.Time || (b.Time == a.Time && b.Server < a.Server) {
				t.Fatalf("shards=%d: alert %d (%s@%v) out of order after (%s@%v)",
					shards, i, b.Server, b.Time, a.Server, a.Time)
			}
		}
		if m := st.Metrics(); m.Late != 0 {
			t.Errorf("shards=%d: %d late records despite adequate FlushLag", shards, m.Late)
		}
		if reference == nil {
			reference = alerts
			continue
		}
		if !reflect.DeepEqual(alerts, reference) {
			t.Errorf("shards=%d: alert stream differs from single-shard reference (%d vs %d alerts)",
				shards, len(alerts), len(reference))
		}
	}
}

// sortRecords orders records the way a passive tracer emits them: by
// completion time.
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Depart != recs[j].Depart {
			return recs[i].Depart < recs[j].Depart
		}
		return recs[i].Server < recs[j].Server
	})
}

// TestStreamMetricsAccounting checks the self-metrics invariants: every
// record is either ingested or dropped, late records are counted, and the
// closure counters agree with the alert stream.
func TestStreamMetricsAccounting(t *testing.T) {
	recs := uniformWorkload(3)
	sortRecords(recs)
	st, err := NewStream(StreamConfig{
		OnlineConfig: OnlineConfig{
			Window:       20 * time.Minute,
			ServiceTimes: streamServiceTimes,
		},
		Shards:   4,
		FlushLag: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	var total, congested, freezes int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range st.Alerts() {
			total++
			if a.Congested {
				congested++
			}
			if a.Freeze {
				freezes++
			}
		}
	}()
	for _, r := range recs {
		if err := st.Observe(r); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	// A record far in the past, after the watermark has moved on: must be
	// counted late, not silently swallowed.
	straggler := Record{Server: recs[0].Server, Class: "small", Arrive: time.Microsecond, Depart: 2 * time.Millisecond}
	if err := st.Observe(straggler); err != nil {
		t.Fatalf("Observe straggler: %v", err)
	}
	st.Close()
	<-done
	m := st.Metrics()
	if m.Ingested+m.Dropped != int64(len(recs))+1 {
		t.Errorf("ingested %d + dropped %d != %d records", m.Ingested, m.Dropped, len(recs)+1)
	}
	if m.Dropped != 0 {
		t.Errorf("blocking backpressure dropped %d records", m.Dropped)
	}
	if m.Late == 0 {
		t.Errorf("straggler not counted late")
	}
	if m.IntervalsClosed != total {
		t.Errorf("IntervalsClosed %d != %d alerts received", m.IntervalsClosed, total)
	}
	if m.Congested != congested || m.Freezes != freezes {
		t.Errorf("metrics (%d congested, %d freezes) != alert stream (%d, %d)",
			m.Congested, m.Freezes, congested, freezes)
	}
	if m.Shards != 4 || len(m.QueueDepth) != 4 {
		t.Errorf("shard accounting: %d shards, %d queue depths", m.Shards, len(m.QueueDepth))
	}
}

// TestStreamCloseIdempotent checks Close/Observe-after-Close behavior.
func TestStreamCloseIdempotent(t *testing.T) {
	st, err := NewStream(StreamConfig{OnlineConfig: OnlineConfig{ServiceTimes: streamServiceTimes}})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	go func() {
		for range st.Alerts() {
		}
	}()
	if err := st.Observe(Record{Server: "a", Arrive: 0, Depart: 3 * time.Millisecond}); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	first := st.Close()
	if first == nil {
		t.Fatalf("Close returned nil report despite data")
	}
	if again := st.Close(); again != first {
		t.Errorf("second Close returned a different report")
	}
	if err := st.Observe(Record{Server: "a", Arrive: 0, Depart: time.Millisecond}); err == nil {
		t.Errorf("Observe after Close did not fail")
	}
}

// TestStreamEmpty: a runtime that saw nothing must close cleanly with a
// nil report.
func TestStreamEmpty(t *testing.T) {
	st, err := NewStream(StreamConfig{})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	go func() {
		for range st.Alerts() {
		}
	}()
	if report := st.Close(); report != nil {
		t.Errorf("empty stream produced a report: %+v", report)
	}
}

// TestStreamWindowTooShort: a window that cannot hold the 20 intervals N*
// estimation needs is a construction error — including one shorter than
// the interval itself, which used to truncate to zero intervals and run
// the 2-minute default. So is an interval that is not a positive whole
// number of the trace clock's microseconds: 500ns used to truncate to
// zero, run the 50 ms default grid and size the window for 2.4e8
// intervals. Zero still means the default. A window past the interval
// ceiling is rejected too: 10 000 h used to size 7.2e8 intervals.
func TestStreamWindowTooShort(t *testing.T) {
	for _, window := range []time.Duration{10 * time.Millisecond, 950 * time.Millisecond, 10000 * time.Hour} {
		_, err := NewStream(StreamConfig{OnlineConfig: OnlineConfig{Window: window}})
		if err == nil || !strings.Contains(err.Error(), "Window") {
			t.Errorf("NewStream(Window %v at the 50 ms default interval) = %v, want a Window error", window, err)
		}
	}
	for _, interval := range []time.Duration{500, 1, 1500, -5 * time.Millisecond} {
		_, err := NewStream(StreamConfig{OnlineConfig: OnlineConfig{Interval: interval}})
		if err == nil || !strings.Contains(err.Error(), "Interval "+interval.String()) {
			t.Errorf("NewStream(Interval %v) = %v, want an Interval error", interval, err)
		}
	}
	st, err := NewStream(StreamConfig{})
	if err != nil {
		t.Fatalf("NewStream with the zero Interval: %v", err)
	}
	go func() {
		for range st.Alerts() {
		}
	}()
	st.Close()
}

// TestStreamDetectsOverloadPhase: live alerts on a trace with one
// transient overload are congested only around it and only at the
// overloaded server, and the final report carries that server's N*.
func TestStreamDetectsOverloadPhase(t *testing.T) {
	recs := busyTrace()
	sortRecords(recs)
	st, err := NewStream(StreamConfig{
		OnlineConfig: OnlineConfig{Reestimate: 2 * time.Second, Window: 30 * time.Second},
		FlushLag:     500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	var congested []OnlineAlert
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range st.Alerts() {
			if a.Congested {
				congested = append(congested, a)
			}
		}
	}()
	if err := st.Observe(Record{}); err == nil {
		t.Error("want error for record without server")
	}
	for _, r := range recs {
		if err := st.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	report := st.Close()
	<-done
	if len(congested) == 0 {
		t.Fatal("streaming detector missed the overload phase")
	}
	// Congestion alerts cluster around the burst at [2s, 2.5s) and drain.
	for _, a := range congested {
		if a.Time < 1900*time.Millisecond || a.Time > 6*time.Second {
			t.Errorf("congested alert at %v outside the overload window", a.Time)
		}
		if a.Server != "db" {
			t.Errorf("alert from %s, want db", a.Server)
		}
	}
	if db := report.PerServer["db"]; db == nil || db.NStar <= 0 {
		t.Errorf("no N* estimate for db after the run: %+v", db)
	}
}
