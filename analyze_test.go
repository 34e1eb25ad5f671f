package transientbd

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"transientbd/internal/core"
)

// busyTrace builds a single-server trace with a transient overload phase:
// capacity 1 req/10ms, 50% baseline utilization; during [2s,2.5s) requests
// arrive at 2.5× capacity, building a backlog that drains over the
// following couple of seconds.
func busyTrace() []Record {
	var recs []Record
	service := 10 * time.Millisecond
	var busyUntil time.Duration
	at := time.Duration(0)
	for at < 8*time.Second {
		gap := 20 * time.Millisecond
		if at >= 2*time.Second && at < 2500*time.Millisecond {
			gap = 4 * time.Millisecond
		}
		at += gap
		start := at
		if busyUntil > start {
			start = busyUntil
		}
		end := start + service
		busyUntil = end
		recs = append(recs, Record{Server: "db", Class: "q", Arrive: at, Depart: end})
	}
	return recs
}

func TestAnalyzeDetectsOverloadPhase(t *testing.T) {
	report, err := Analyze(busyTrace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	db := report.PerServer["db"]
	if db == nil {
		t.Fatal("missing db analysis")
	}
	if !db.Saturated {
		t.Error("overload phase not detected as saturation")
	}
	if db.CongestedFraction < 0.1 || db.CongestedFraction > 0.5 {
		t.Errorf("congested fraction = %.3f, want ~0.25 (2s of 8s)", db.CongestedFraction)
	}
	// Episodes must fall inside the overload phase (allow detection edge
	// effects at the boundaries, and the backlog drains past 4s).
	if len(db.Episodes) == 0 {
		t.Fatal("no congestion episodes")
	}
	for _, ep := range db.Episodes {
		if ep.Start < 1900*time.Millisecond || ep.Start > 6*time.Second {
			t.Errorf("episode at %v outside the overload window", ep.Start)
		}
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(nil, Config{}); !errors.Is(err, ErrNoRecords) {
		t.Errorf("err = %v, want ErrNoRecords", err)
	}
	bad := []Record{{Server: "", Arrive: 0, Depart: time.Second}}
	if _, err := Analyze(bad, Config{}); err == nil {
		t.Error("want error for empty server name")
	}
	rev := []Record{{Server: "s", Arrive: time.Second, Depart: 0}}
	if _, err := Analyze(rev, Config{}); err == nil {
		t.Error("want error for reversed timestamps")
	}
	// A far-future departure stretches the default window past the
	// interval ceiling: an error naming the count, not an allocation of
	// 1.44 TB.
	far := []Record{{Server: "s", Arrive: 0, Depart: time.Second}, {Server: "s", Arrive: time.Second, Depart: 9e15 * time.Microsecond}}
	if _, err := Analyze(far, Config{}); err == nil || !strings.Contains(err.Error(), "180000000001 intervals exceeds the limit") {
		t.Errorf("Analyze with a far-future record: err = %v, want the interval limit", err)
	}
	if _, err := Classes(far, "s", Config{}); err == nil || !strings.Contains(err.Error(), "180000000001 intervals exceeds the limit") {
		t.Errorf("Classes with a far-future record: err = %v, want the interval limit", err)
	}
}

// TestAnalyzeRejectsUnrepresentableInterval: the trace clock ticks in
// microseconds, so an Interval that is not a positive whole number of
// them must fail in Analyze and Classes as it does in NewStream — not run
// silently at the 50 ms default or at a truncated 1 µs grid.
func TestAnalyzeRejectsUnrepresentableInterval(t *testing.T) {
	recs := busyTrace()[:5]
	for _, iv := range []time.Duration{500 * time.Nanosecond, 1500 * time.Nanosecond, -time.Second} {
		cfg := Config{Interval: iv}
		if _, err := Analyze(recs, cfg); err == nil || !strings.Contains(err.Error(), "Interval") {
			t.Errorf("Analyze with Interval %v: err = %v, want an Interval error", iv, err)
		}
		if _, err := Classes(recs, "db", cfg); err == nil || !strings.Contains(err.Error(), "Interval") {
			t.Errorf("Classes with Interval %v: err = %v, want an Interval error", iv, err)
		}
	}
}

func TestAnalyzeWindowRestriction(t *testing.T) {
	recs := busyTrace()
	report, err := Analyze(recs, Config{
		WindowStart: 0,
		WindowEnd:   2 * time.Second, // quiet phase only
	})
	if err != nil {
		t.Fatal(err)
	}
	db := report.PerServer["db"]
	if db.CongestedFraction > 0.05 {
		t.Errorf("quiet-window congested fraction = %.3f, want ~0", db.CongestedFraction)
	}
}

func TestAnalyzeRankingOrder(t *testing.T) {
	recs := busyTrace()
	// Add a second, quiet server.
	for at := time.Duration(0); at < 8*time.Second; at += 100 * time.Millisecond {
		recs = append(recs, Record{
			Server: "web", Class: "p",
			Arrive: at, Depart: at + 5*time.Millisecond,
		})
	}
	report, err := Analyze(recs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Ranking) != 2 {
		t.Fatalf("ranking = %d entries, want 2", len(report.Ranking))
	}
	if report.Ranking[0].Server != "db" {
		t.Errorf("worst = %s, want db", report.Ranking[0].Server)
	}
	if report.Ranking[0].CongestedFraction < report.Ranking[1].CongestedFraction {
		t.Error("ranking not descending")
	}
}

func TestAnalyzeSuppliedServiceTimes(t *testing.T) {
	recs := busyTrace()
	report, err := Analyze(recs, Config{
		ServiceTimes: map[string]time.Duration{"q": 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.PerServer["db"] == nil {
		t.Fatal("missing analysis")
	}
}

func TestAnalyzeSeriesShape(t *testing.T) {
	report, err := Analyze(busyTrace(), Config{Interval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	db := report.PerServer["db"]
	if db.Interval != 100*time.Millisecond {
		t.Errorf("interval = %v", db.Interval)
	}
	if len(db.Load) != len(db.Throughput) {
		t.Error("series lengths differ")
	}
	// 8s+ of trace at 100ms ⇒ ≥80 intervals.
	if len(db.Load) < 80 {
		t.Errorf("series length = %d, want >= 80", len(db.Load))
	}
}

func TestEpisodeAggregation(t *testing.T) {
	report, err := Analyze(busyTrace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	db := report.PerServer["db"]
	var total time.Duration
	for _, ep := range db.Episodes {
		if ep.Length <= 0 {
			t.Fatalf("episode with non-positive length: %+v", ep)
		}
		total += ep.Length
	}
	// Total episode time must equal congested fraction × window span.
	wantTotal := time.Duration(db.CongestedFraction * float64(len(db.Load)) * float64(db.Interval))
	if total != wantTotal {
		t.Errorf("episode total = %v, want %v", total, wantTotal)
	}
}

// multiServerRecords builds a deterministic bursty trace across several
// servers and classes, so the per-server pool of Analyze has several
// analyses to spread at every tested Parallelism.
func multiServerRecords() []Record {
	const (
		servers = 6
		perSrv  = 4000
	)
	recs := make([]Record, 0, servers*perSrv)
	for s := 0; s < servers; s++ {
		server := fmt.Sprintf("tier-%d", s)
		var busyUntil time.Duration
		at := time.Duration(0)
		for i := 0; i < perSrv; i++ {
			class, svc := "short", 2*time.Millisecond
			if i%3 == 0 {
				class, svc = "long", 8*time.Millisecond
			}
			gap := 3 * time.Millisecond
			// Periodic bursts drive load past the knee so congested
			// intervals, episodes and POIs all appear in the report.
			if i%500 < 60 {
				gap = 500 * time.Microsecond
			}
			at += gap
			start := at
			if busyUntil > start {
				start = busyUntil
			}
			end := start + svc
			busyUntil = end
			recs = append(recs, Record{
				Server: server, Class: class, Arrive: at, Depart: end,
			})
		}
	}
	return recs
}

// TestAnalyzeParallelDeterminism pins the parallelism contract: the
// report is deep-equal whatever the worker count, on a multi-server
// bursty scenario exercising every pipeline stage.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	recs := multiServerRecords()
	serial, err := Analyze(recs, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.PerServer) != 6 {
		t.Fatalf("got %d servers, want 6", len(serial.PerServer))
	}
	congested := 0
	for _, sa := range serial.PerServer {
		if sa.CongestedFraction > 0 {
			congested++
		}
	}
	if congested == 0 {
		t.Fatal("scenario produced no congestion; test is vacuous")
	}
	for _, workers := range []int{2, 8} {
		parallel, err := Analyze(recs, Config{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("Parallelism=%d report differs from serial", workers)
		}
	}
}

// TestAnalyzeParallelError pins error propagation: one malformed record
// fails the whole analysis at every worker count, with the same
// deterministic error (the lowest-index offender), and cancellation keeps
// the parallel path from doing the full run's work.
func TestAnalyzeParallelError(t *testing.T) {
	recs := multiServerRecords()
	// Two malformed records; the lower index must win at any parallelism.
	recs[17000].Depart = recs[17000].Arrive - time.Millisecond
	recs[9000].Server = ""
	serialErr := func() error {
		_, err := Analyze(recs, Config{Parallelism: 1})
		return err
	}()
	if serialErr == nil {
		t.Fatal("want error for malformed record")
	}
	if !strings.Contains(serialErr.Error(), "record 9000") {
		t.Errorf("serial error %q does not name the first offender", serialErr)
	}
	for _, workers := range []int{2, 8} {
		_, err := Analyze(recs, Config{Parallelism: workers})
		if err == nil {
			t.Fatalf("Parallelism=%d: want error", workers)
		}
		if err.Error() != serialErr.Error() {
			t.Errorf("Parallelism=%d error %q, want %q", workers, err, serialErr)
		}
	}
}

// TestAnalyzeStrictNamesFirstFailingServer pins what strict Analyze says
// when per-server analyses fail: the first failing server by name, with
// its cause wrapped, at every worker count. A window starting past the
// end of the trace fails every server, so the answer has to come from the
// skipped list rather than from any one worker.
func TestAnalyzeStrictNamesFirstFailingServer(t *testing.T) {
	recs := multiServerRecords()
	var serial string
	for _, workers := range []int{1, 8} {
		_, err := Analyze(recs, Config{WindowStart: time.Hour, Parallelism: workers})
		if err == nil {
			t.Fatalf("Parallelism=%d: want error for a window past the trace", workers)
		}
		if !strings.HasPrefix(err.Error(), `transientbd: analyze "tier-0": `) {
			t.Errorf("Parallelism=%d: error %q does not name the first server", workers, err)
		}
		if serial == "" {
			serial = err.Error()
		} else if err.Error() != serial {
			t.Errorf("Parallelism=%d error %q, want %q", workers, err, serial)
		}
	}
	// Lenient analysis skips the same servers instead, and then has
	// nothing left to report.
	if _, err := Analyze(recs, Config{WindowStart: time.Hour, Lenient: true}); err == nil ||
		err.Error() != "transientbd: no server produced an analysis" {
		t.Errorf("lenient error = %v, want no server produced an analysis", err)
	}
}

// TestSortRankingTieBreak pins the ranking order contract: congested
// fraction descending, ties broken by server name ascending.
func TestSortRankingTieBreak(t *testing.T) {
	rs := []*core.Analysis{
		{Server: "delta", CongestedFraction: 0.2},
		{Server: "alpha", CongestedFraction: 0.2},
		{Server: "bravo", CongestedFraction: 0.9},
		{Server: "echo", CongestedFraction: 0},
		{Server: "charlie", CongestedFraction: 0.2},
	}
	core.SortWorstFirst(rs)
	want := []string{"bravo", "alpha", "charlie", "delta", "echo"}
	for i, name := range want {
		if rs[i].Server != name {
			t.Fatalf("rank %d = %s, want %s (full order %v)", i, rs[i].Server, name, rankingNames(rs))
		}
	}
}

func rankingNames(rs []*core.Analysis) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Server
	}
	return out
}

// Lenient mode survives exactly the inputs strict mode rejects, and says
// what it dropped.
func TestAnalyzeLenientQuarantinesInvalidRecords(t *testing.T) {
	recs := busyTrace()
	recs = append(recs,
		Record{Server: "", Arrive: 0, Depart: time.Second},       // no server
		Record{Server: "db", Arrive: 2 * time.Second, Depart: 0}, // reversed
	)
	if _, err := Analyze(recs, Config{}); err == nil {
		t.Fatal("strict mode should reject the corrupt records")
	}
	report, err := Analyze(recs, Config{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	q := report.Quality
	if q == nil {
		t.Fatal("lenient report has no quality block")
	}
	if q.Records != len(recs) || q.RecordsDropped != 2 {
		t.Errorf("records %d dropped %d, want %d and 2", q.Records, q.RecordsDropped, len(recs))
	}
	if c := q.Coverage(); c <= 0.9 || c >= 1 {
		t.Errorf("coverage = %v, want in (0.9, 1)", c)
	}
	if report.PerServer["db"] == nil {
		t.Error("db analysis missing despite usable records")
	}
	// The surviving records are clean, so the detection result must match
	// a strict run over just those records.
	strict, err := Analyze(busyTrace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := report.PerServer["db"].CongestedFraction, strict.PerServer["db"].CongestedFraction; got != want {
		t.Errorf("lenient congested fraction %v != strict %v on identical usable records", got, want)
	}
}

func TestAnalyzeLenientRepairsVisitSkew(t *testing.T) {
	// One transaction: an entry visit at "web" containing a nested visit
	// at "db" whose collector clock trails by 20ms, so the db visit seems
	// to start 15ms before the web entry arrives.
	recs := []Record{
		{Server: "web", TxnID: 1, HopID: 1, Arrive: 100 * time.Millisecond, Depart: 130 * time.Millisecond},
		{Server: "db", TxnID: 1, HopID: 2, Arrive: 105*time.Millisecond - 20*time.Millisecond, Depart: 115*time.Millisecond - 20*time.Millisecond},
	}
	// Pad both servers with enough clean traffic to analyze.
	at := 200 * time.Millisecond
	for i := 0; i < 200; i++ {
		recs = append(recs,
			Record{Server: "web", Arrive: at, Depart: at + 8*time.Millisecond},
			Record{Server: "db", Arrive: at + time.Millisecond, Depart: at + 4*time.Millisecond},
		)
		at += 10 * time.Millisecond
	}
	report, err := Analyze(recs, Config{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	q := report.Quality
	if q.SkewViolations == 0 {
		t.Error("skew violation not detected")
	}
	if q.ServerSkew["db"] <= 0 {
		t.Errorf("db skew = %v, want positive", q.ServerSkew["db"])
	}
	if q.VisitsRepaired == 0 {
		t.Error("no visits repaired")
	}
}

func TestAnalyzeLenientAllQuarantined(t *testing.T) {
	recs := []Record{
		{Server: "", Arrive: 0, Depart: time.Second},
		{Server: "s", Arrive: time.Second, Depart: 0},
	}
	if _, err := Analyze(recs, Config{Lenient: true}); !errors.Is(err, ErrNoRecords) {
		t.Errorf("err = %v, want ErrNoRecords", err)
	}
}

func TestAnalyzeStrictHasNoQualityBlock(t *testing.T) {
	report, err := Analyze(busyTrace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Quality != nil {
		t.Error("strict report should not carry a quality block")
	}
}
