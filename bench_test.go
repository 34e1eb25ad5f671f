package transientbd

// Benchmark harness: one benchmark per paper table/figure (regenerating
// the artifact on a reduced-duration run per iteration), plus ablation
// and substrate microbenchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks measure end-to-end regeneration cost; the
// shape assertions for the artifacts themselves live in
// internal/experiments' tests and EXPERIMENTS.md records full-duration
// numbers.

import (
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"transientbd/internal/core"
	"transientbd/internal/experiments"
	"transientbd/internal/mva"
	"transientbd/internal/simnet"
	"transientbd/internal/stream"
	"transientbd/internal/trace"
)

// benchOpts keeps per-iteration cost manageable while exercising the same
// code paths as the full 3-minute experiments.
func benchOpts() experiments.RunOpts {
	return experiments.RunOpts{
		Seed:     1,
		Duration: 15 * simnet.Second,
		Ramp:     5 * simnet.Second,
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Run(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2a regenerates the throughput-vs-workload sweep (reduced to
// three workloads per iteration).
func BenchmarkFig2a(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2([]int{2000, 8000, 12000}, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2c regenerates the WL 8,000 response-time histogram.
func BenchmarkFig2c(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2([]int{8000}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if r.Histogram == nil {
			b.Fatal("no histogram")
		}
	}
}

// BenchmarkFig3TableI regenerates the CPU timelines and Table I.
func BenchmarkFig3TableI(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4 regenerates the trace-reconstruction accuracy experiment.
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5 regenerates the MySQL fine-grained analysis at WL 7,000.
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6 regenerates the load-calculation example.
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7 regenerates the normalization example.
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates the interval-length sensitivity study.
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9to11 regenerates the JVM GC case study (three runs).
func BenchmarkFig9to11(b *testing.B) { runExperiment(b, "fig9-11") }

// BenchmarkFig12to13 regenerates the SpeedStep case study (four runs).
func BenchmarkFig12to13(b *testing.B) { runExperiment(b, "fig12-13") }

// BenchmarkTableII regenerates the P-state table.
func BenchmarkTableII(b *testing.B) { runExperiment(b, "tableII") }

// --- Ablation benches (design choices called out in DESIGN.md §5) ------

// syntheticVisits builds a deterministic mixed-class visit stream for
// analyzer ablations: n visits across two classes on one server.
func syntheticVisits(n int) []Record {
	recs := make([]Record, 0, n)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		class, span := "short", 2*time.Millisecond
		if i%5 == 0 {
			class, span = "long", 10*time.Millisecond
		}
		at += 3 * time.Millisecond
		recs = append(recs, Record{
			Server: "s", Class: class,
			Arrive: at, Depart: at + span,
		})
	}
	return recs
}

// BenchmarkAnalyzeNormalized measures the full pipeline with work-unit
// normalization (the paper's method).
func BenchmarkAnalyzeNormalized(b *testing.B) {
	recs := syntheticVisits(50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(recs, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeRaw is the ablation: straightforward request counting
// (what normalization replaces).
func BenchmarkAnalyzeRaw(b *testing.B) {
	recs := syntheticVisits(50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(recs, Config{RawThroughput: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeInterval sweeps the monitoring interval length (the
// Fig 8 knob): shorter intervals mean more points to bin and classify.
func BenchmarkAnalyzeInterval(b *testing.B) {
	recs := syntheticVisits(50000)
	for _, interval := range []time.Duration{20, 50, 1000} {
		iv := interval * time.Millisecond
		b.Run(iv.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(recs, Config{Interval: iv}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchVisits generates the deterministic multi-server bursty trace the
// analysis benchmarks run on: n visits spread over s servers, with a
// class mix of c classes whose service times differ (exercising work-unit
// normalization) and periodic arrival bursts that push load past the
// knee (exercising N* estimation and interval classification).
func benchVisits(n, s, c int, seed int64) (map[string][]trace.Visit, core.Window) {
	rng := simnet.NewRNG(seed)
	perServer := make(map[string][]trace.Visit, s)
	perN := n / s
	var end simnet.Time
	for si := 0; si < s; si++ {
		name := fmt.Sprintf("server-%02d", si)
		visits := make([]trace.Visit, 0, perN)
		var at simnet.Time
		var busyUntil simnet.Time
		for i := 0; i < perN; i++ {
			class := i % c
			svc := simnet.Duration(2+3*class) * simnet.Millisecond
			gap := rng.Exp(6 * simnet.Millisecond)
			// Every ~2000 visits, a 200-visit burst arrives at 4x rate,
			// building a transient backlog that drains afterwards.
			if i%2000 < 200 {
				gap /= 4
			}
			at += simnet.Time(gap)
			start := at
			if busyUntil > start {
				start = busyUntil
			}
			depart := start + simnet.Time(svc)
			busyUntil = depart
			visits = append(visits, trace.Visit{
				Server: name,
				Class:  fmt.Sprintf("class-%d", class),
				Arrive: at,
				Depart: depart,
			})
			if depart >= end {
				end = depart + 1
			}
		}
		perServer[name] = visits
	}
	return perServer, core.Window{Start: 0, End: end}
}

// benchVisitStream flattens the benchVisits workload into the single
// departure-ordered stream the online benchmarks ingest — the order a
// passive tracer's collector would deliver, so the runtime's watermark
// never marks a record late.
func benchVisitStream(n, s, c int, seed int64) []trace.Visit {
	perServer, _ := benchVisits(n, s, c, seed)
	var all []trace.Visit
	for _, vs := range perServer {
		all = append(all, vs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Depart != all[j].Depart {
			return all[i].Depart < all[j].Depart
		}
		return all[i].Server < all[j].Server
	})
	return all
}

// BenchmarkAnalyzeParallel measures the per-server fan-out of the
// detection pipeline over a multi-server bursty trace at 1/2/4/8 workers;
// wall-clock speedup tracks min(servers, GOMAXPROCS, workers). Sweep
// cores with -cpu, repeat with -count (PERFORMANCE.md "How to measure").
func BenchmarkAnalyzeParallel(b *testing.B) {
	perServer, w := benchVisits(100000, 8, 3, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(itoa(workers)+"workers", func(b *testing.B) {
			opts := core.Options{Interval: 50 * simnet.Millisecond, Parallelism: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.AnalyzeSystemGrouped(perServer, w, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// batchAnalyzeAllocBudget bounds the heap allocations of one whole
// core.AnalyzeSystemGrouped pass at Parallelism 1 over the 200 000-record
// / 8-server / 3-class / seed-1 benchVisits trace. The pass measures 383
// at GOMAXPROCS 1 and 2 alike (set-up plus per-interval series — one load
// and one throughput series per server — plus one delay histogram per
// class, and no per-record work); the budget is that plus 15 %, the
// tolerance the retired `experiments bench -compare` gate applied to the
// same count, and one allocation per record would read 200 000 more. The
// fourth budget of PERFORMANCE.md "The allocation-budget contract".
const batchAnalyzeAllocBudget = 440

func TestBatchAnalyzeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget is meaningless under -race")
	}
	perServer, w := benchVisits(200000, 8, 3, 1)
	opts := core.Options{Interval: 50 * simnet.Millisecond, Parallelism: 1}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.AnalyzeSystemGrouped(perServer, w, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > batchAnalyzeAllocBudget {
		t.Fatalf("AnalyzeSystemGrouped allocated %.0f times over 200000 records, budget %d: something on the per-record path allocates",
			allocs, batchAnalyzeAllocBudget)
	}
}

// BenchmarkNStarBins sweeps the bin count k of the congestion-point
// estimator.
func BenchmarkNStarBins(b *testing.B) {
	rng := simnet.NewRNG(1)
	pts := make([]core.Point, 20000)
	for i := range pts {
		load := rng.Float64() * 30
		tp := 100 * load
		if load > 10 {
			tp = 1000
		}
		pts[i] = core.Point{Load: load, TP: tp * (1 + 0.05*(rng.Float64()-0.5))}
	}
	for _, bins := range []int{25, 100, 400} {
		b.Run(itoa(bins), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.EstimateNStar(pts, core.NStarOptions{Bins: bins}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Substrate microbenches --------------------------------------------

// BenchmarkEngineEvents measures raw event throughput of the simulation
// engine.
func BenchmarkEngineEvents(b *testing.B) {
	b.ReportAllocs()
	e := simnet.NewEngine()
	var tick func()
	count := 0
	tick = func() {
		count++
		if count < b.N {
			e.Schedule(simnet.Microsecond, tick)
		}
	}
	e.Schedule(0, tick)
	b.ResetTimer()
	if err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReconstruct measures black-box trace reconstruction throughput.
func BenchmarkReconstruct(b *testing.B) {
	var msgs []trace.Message
	for i := int64(0); i < 20000; i++ {
		at := simnet.Time(i) * 50
		msgs = append(msgs,
			trace.Message{At: at, From: "a", To: "b", Dir: trace.Call, Class: "q", Conn: i % 64, HopID: i + 1},
			trace.Message{At: at + 700, From: "b", To: "a", Dir: trace.Return, Class: "q", Conn: i % 64, HopID: i + 1},
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := trace.Reconstruct(msgs)
		if res.PairedHops != 20000 {
			b.Fatal("bad reconstruction")
		}
	}
}

// BenchmarkScenarioThroughput measures full-simulator speed: virtual
// seconds simulated per wall second at the paper's WL 8,000.
func BenchmarkScenarioThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunScenario(Scenario{
			Users:    8000,
			Duration: 10 * time.Second,
			Ramp:     2 * time.Second,
			Seed:     int64(i),
			Bursty:   true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) == 0 {
			b.Fatal("empty run")
		}
	}
}

// benchStreamShards measures end-to-end ingest throughput of the sharded
// online runtime: one op observes the whole departure-ordered stream,
// closes every interval, and drains the merged alert stream; wall-clock
// speedup tracks min(servers, GOMAXPROCS, shards).
func benchStreamShards(b *testing.B, shards int) {
	const records = 100000
	visits := benchVisitStream(records, 8, 3, 1)
	cfg := stream.Config{
		Online: core.OnlineOptions{Options: core.Options{Interval: 50 * simnet.Millisecond}},
		Shards: shards,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := stream.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range rt.Alerts() {
			}
		}()
		for j := range visits {
			if err := rt.Observe(visits[j]); err != nil {
				b.Fatal(err)
			}
		}
		rt.Close()
		<-done
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkStreamShards1(b *testing.B) { benchStreamShards(b, 1) }
func BenchmarkStreamShards4(b *testing.B) { benchStreamShards(b, 4) }
func BenchmarkStreamShards8(b *testing.B) { benchStreamShards(b, 8) }

// BenchmarkChooseInterval measures the §III-D automatic interval scorer.
func BenchmarkChooseInterval(b *testing.B) {
	recs := syntheticVisits(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ChooseInterval(recs, "s", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMVA measures the analytical baseline's solve time across the
// full population range.
func BenchmarkMVA(b *testing.B) {
	stations := []mva.Station{
		{Name: "web", Demand: 600 * simnet.Microsecond, Servers: 2},
		{Name: "app", Demand: 3 * simnet.Millisecond, Servers: 4},
		{Name: "db", Demand: 2850 * simnet.Microsecond, Servers: 4},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mva.Solve(stations, 7*simnet.Second, 14000); err != nil {
			b.Fatal(err)
		}
	}
}
