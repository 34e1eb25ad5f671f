package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"transientbd/internal/metrics"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

const ms = simnet.Millisecond

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestLoadCalculationFig6 replicates the paper's Fig 6: interleaved
// arrival/departure timestamps over two 100 ms intervals, load = time-
// weighted average concurrency.
func TestLoadCalculationFig6(t *testing.T) {
	visits := []trace.Visit{
		// Interval 0: one request resident 50 ms → load 0.5.
		{Server: "s", Class: "a", Arrive: 20 * ms, Depart: 70 * ms},
		// Interval 1: two overlapping requests.
		{Server: "s", Class: "a", Arrive: 110 * ms, Depart: 160 * ms},
		{Server: "s", Class: "a", Arrive: 130 * ms, Depart: 190 * ms},
	}
	w := Window{Start: 0, End: 200 * ms}
	load, err := LoadSeries(visits, w, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	if load.Len() != 2 {
		t.Fatalf("intervals = %d, want 2", load.Len())
	}
	if !almostEq(load.Value(0), 0.5) {
		t.Errorf("interval 0 load = %v, want 0.5", load.Value(0))
	}
	// 20ms@1 + 30ms@2 + 30ms@1 + 20ms@0 → (20+60+30)/100 = 1.1
	if !almostEq(load.Value(1), 1.1) {
		t.Errorf("interval 1 load = %v, want 1.1", load.Value(1))
	}
}

func TestLoadSeriesCrossBoundaryRequest(t *testing.T) {
	// One request spanning three intervals contributes to each.
	visits := []trace.Visit{{Server: "s", Class: "a", Arrive: 50 * ms, Depart: 250 * ms}}
	load, err := LoadSeries(visits, Window{Start: 0, End: 300 * ms}, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1.0, 0.5}
	for i, wv := range want {
		if !almostEq(load.Value(i), wv) {
			t.Errorf("interval %d load = %v, want %v", i, load.Value(i), wv)
		}
	}
}

func TestLoadSeriesRequestOutsideWindow(t *testing.T) {
	// A request entirely before the window and one still resident at the
	// window start: the resident one counts, per the running level.
	visits := []trace.Visit{
		{Server: "s", Arrive: 0, Depart: 10 * ms},
		{Server: "s", Arrive: 20 * ms, Depart: 180 * ms},
	}
	load, err := LoadSeries(visits, Window{Start: 100 * ms, End: 200 * ms}, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(load.Value(0), 0.8) {
		t.Errorf("load = %v, want 0.8 (resident 80ms of 100ms)", load.Value(0))
	}
}

func TestLoadSeriesValidation(t *testing.T) {
	if _, err := LoadSeries(nil, Window{Start: 10, End: 10}, ms); err == nil {
		t.Error("want error for empty window")
	}
	if _, err := LoadSeries(nil, Window{Start: 0, End: 100 * ms}, 0); err == nil {
		t.Error("want error for zero interval")
	}
}

func TestWindowSpan(t *testing.T) {
	w := Window{Start: simnet.Second, End: 3 * simnet.Second}
	if w.Span() != 2*simnet.Second {
		t.Errorf("Span = %v", w.Span())
	}
}

func TestErrNoVisitsWrapping(t *testing.T) {
	_, err := AnalyzeServer("x", nil, Window{Start: 0, End: simnet.Second}, Options{})
	if !errors.Is(err, ErrNoVisits) {
		t.Errorf("err = %v, want ErrNoVisits", err)
	}
}

// oracleLoadSeries is the original sort-based load computation (the
// StepAccumulator sweep LoadSeries used before the incremental
// metrics.LoadAccumulator replaced it), kept as the reference
// implementation for the equivalence property below.
func oracleLoadSeries(t *testing.T, visits []trace.Visit, w Window, interval simnet.Duration) *metrics.IntervalSeries {
	t.Helper()
	acc := metrics.NewStepAccumulator(0)
	for _, v := range visits {
		acc.Change(v.Arrive, 1)
		acc.Change(v.Depart, -1)
	}
	s, err := acc.Average(w.Start, w.End, interval)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return s
}

// TestLoadAccumulatorMatchesStepOracle pins the incremental
// LoadAccumulator to the sort-based sweep bit-for-bit: both sum exact
// integer microsecond counts per interval (exact in float64, so addition
// order cannot matter), and must therefore agree with == — no epsilon —
// across adversarial visit sets: dense overlap, zero-length spans,
// inverted spans (depart before arrive), spans straddling either window
// edge, spans entirely outside the window, far-future timestamps, and a
// window whose span is not a multiple of the interval width.
func TestLoadAccumulatorMatchesStepOracle(t *testing.T) {
	windows := []struct {
		name     string
		w        Window
		interval simnet.Duration
	}{
		{"aligned", Window{Start: 0, End: 10 * simnet.Second}, 50 * ms},
		{"offset-start", Window{Start: 7*ms + 123, End: 4 * simnet.Second}, 50 * ms},
		{"ragged-last-interval", Window{Start: 0, End: 3*simnet.Second + 47*ms}, 50 * ms},
		{"single-interval", Window{Start: simnet.Second, End: simnet.Second + 50*ms}, 50 * ms},
		{"wide-intervals", Window{Start: 0, End: 10 * simnet.Second}, 700 * ms},
	}
	for _, tc := range windows {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				span := int64(tc.w.End - tc.w.Start)
				n := 50 + rng.Intn(400)
				visits := make([]trace.Visit, 0, n)
				for i := 0; i < n; i++ {
					// Arrivals may land before, inside, or after the window.
					arrive := tc.w.Start + simnet.Time(rng.Int63n(2*span)-span/2)
					var depart simnet.Time
					switch rng.Intn(10) {
					case 0: // zero-length span
						depart = arrive
					case 1: // inverted span (hostile feed)
						depart = arrive - simnet.Time(rng.Int63n(span/4+1))
					case 2: // far-future departure
						depart = tc.w.End + simnet.Time(rng.Int63n(span+1))
					default: // ordinary span, often crossing interval edges
						depart = arrive + simnet.Time(rng.Int63n(span/3+1))
					}
					visits = append(visits, trace.Visit{
						Server: "srv", Class: "q", TxnID: int64(i),
						Arrive: arrive, Depart: depart,
					})
				}
				// Out-of-order delivery: both forms must be order-blind.
				rng.Shuffle(len(visits), func(i, j int) {
					visits[i], visits[j] = visits[j], visits[i]
				})
				got, err := LoadSeries(visits, tc.w, tc.interval)
				if err != nil {
					t.Fatalf("seed %d: LoadSeries: %v", seed, err)
				}
				want := oracleLoadSeries(t, visits, tc.w, tc.interval)
				if got.Len() != want.Len() || got.Start() != want.Start() || got.Width() != want.Width() {
					t.Fatalf("seed %d: shape (%d,%v,%v) != oracle (%d,%v,%v)",
						seed, got.Len(), got.Start(), got.Width(),
						want.Len(), want.Start(), want.Width())
				}
				for i := 0; i < got.Len(); i++ {
					if got.Value(i) != want.Value(i) {
						t.Fatalf("seed %d interval %d: accumulator %v != oracle %v (bit-exact equality required)",
							seed, i, got.Value(i), want.Value(i))
					}
				}
			}
		})
	}
}
