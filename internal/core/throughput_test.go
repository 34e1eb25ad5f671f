package core

import (
	"math"
	"slices"
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/stats"
	"transientbd/internal/trace"
)

// fig7Visits builds the paper's Fig 7 example: two request classes with
// service times 30 ms (Req1) and 10 ms (Req2) completing across three
// 100 ms intervals with straightforward throughput 2/2/4 but normalized
// throughput 6/4/4.
func fig7Visits() []trace.Visit {
	v := func(class string, arrive, depart simnet.Time) trace.Visit {
		return trace.Visit{Server: "s", Class: class, Arrive: arrive, Depart: depart}
	}
	return []trace.Visit{
		// TW0 [0,100): two Req1 completions → 6 work units, load 0.6.
		v("Req1", 10*ms, 40*ms),
		v("Req1", 50*ms, 80*ms),
		// TW1 [100,200): one Req1 + one Req2 → 4 units, load 0.4.
		v("Req1", 110*ms, 140*ms),
		v("Req2", 160*ms, 170*ms),
		// TW2 [200,300): four Req2 → 4 units, load 0.4.
		v("Req2", 200*ms, 210*ms),
		v("Req2", 215*ms, 225*ms),
		v("Req2", 230*ms, 240*ms),
		v("Req2", 245*ms, 255*ms),
	}
}

// TestNormalizationFig7 replicates the paper's Fig 7 numbers exactly: in
// its 10 ms unit, and in the 100 µs quantum, from the paper's table. The
// table estimated from the visits is the paper's to the histogram's
// precision, half a bucket (1/32 of the value).
func TestNormalizationFig7(t *testing.T) {
	visits := fig7Visits()
	w := Window{Start: 0, End: 300 * ms}

	est, err := EstimateServiceTimes(visits, 10)
	if err != nil {
		t.Fatal(err)
	}
	svc := ServiceTimes{"Req1": 30 * ms, "Req2": 10 * ms}
	for class, want := range svc {
		if d := est[class] - want; d < -want/32 || d > want/32 {
			t.Errorf("%s service = %v, want %v within half a bucket", class, est[class], want)
		}
	}
	if unit := WorkUnit(svc); unit != 100*simnet.Microsecond {
		t.Errorf("work unit = %v, want the 100µs quantum", unit)
	}
	quantum, err := NormalizedThroughputSeries(visits, svc, WorkUnit(svc), w, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{600, 400, 400} {
		if got := quantum.Value(i) * 0.1; !almostEq(got, want) {
			t.Errorf("normalized tp[%d] in quanta = %v, want %v", i, got, want)
		}
	}
	unit := 10 * ms

	raw, err := ThroughputSeries(visits, w, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	// Per-interval counts: rate × 0.1s.
	wantRaw := []float64{2, 2, 4}
	for i, want := range wantRaw {
		if got := raw.Value(i) * 0.1; !almostEq(got, want) {
			t.Errorf("straightforward tp[%d] = %v, want %v", i, got, want)
		}
	}

	norm, err := NormalizedThroughputSeries(visits, svc, unit, w, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	wantNorm := []float64{6, 4, 4}
	for i, want := range wantNorm {
		if got := norm.Value(i) * 0.1; !almostEq(got, want) {
			t.Errorf("normalized tp[%d] = %v, want %v", i, got, want)
		}
	}

	// The paper's observation: load (0.6, 0.4, 0.4) correlates positively
	// with normalized throughput but not with the straightforward count.
	load, err := LoadSeries(visits, w, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	rNorm := stats.PearsonR(load.Values(), norm.Values())
	rRaw := stats.PearsonR(load.Values(), raw.Values())
	if rNorm < 0.99 {
		t.Errorf("normalized correlation = %.3f, want ~1 (unsaturated server)", rNorm)
	}
	if rRaw > 0 {
		t.Errorf("straightforward correlation = %.3f, want <= 0", rRaw)
	}
}

func TestEstimateServiceTimesMasksQueueing(t *testing.T) {
	// Class "q": true service 10ms; most visits queued behind others so
	// intra-node delay is inflated. The low percentile recovers ~10ms.
	var visits []trace.Visit
	for i := 0; i < 20; i++ {
		d := 10 * ms
		if i >= 3 {
			d = simnet.Duration(10+5*i) * ms // queued
		}
		visits = append(visits, trace.Visit{Server: "s", Class: "q", Arrive: 0, Depart: d})
	}
	svc, err := EstimateServiceTimes(visits, 10)
	if err != nil {
		t.Fatal(err)
	}
	if svc["q"] < 9*ms || svc["q"] > 13*ms {
		t.Errorf("service estimate = %v, want ~10ms", svc["q"])
	}
}

func TestEstimateServiceTimesSubtractsDownstream(t *testing.T) {
	visits := []trace.Visit{
		{Server: "s", Class: "page", Arrive: 0, Depart: 100 * ms, Downstream: 90 * ms},
	}
	svc, err := EstimateServiceTimes(visits, 50)
	if err != nil {
		t.Fatal(err)
	}
	// 10 ms is counted in a bucket 512 µs wide; the estimate is its
	// midpoint.
	if want := simnet.Duration(histMid(histBucket(10 * ms))); svc["page"] != want {
		t.Errorf("service = %v, want %v, the midpoint of 10ms's bucket (residence − downstream)", svc["page"], want)
	}
}

func TestEstimateServiceTimesEmpty(t *testing.T) {
	if _, err := EstimateServiceTimes(nil, 10); err != ErrNoVisits {
		t.Errorf("err = %v, want ErrNoVisits", err)
	}
}

func TestEstimateServiceTimesBadPercentileFallsBack(t *testing.T) {
	visits := []trace.Visit{{Server: "s", Class: "q", Arrive: 0, Depart: 10 * ms}}
	svc, err := EstimateServiceTimes(visits, -5)
	if err != nil {
		t.Fatal(err)
	}
	if want := simnet.Duration(histMid(histBucket(10 * ms))); svc["q"] != want {
		t.Errorf("service = %v, want %v, the midpoint of 10ms's bucket", svc["q"], want)
	}
}

// TestWorkUnitGCD pins that the work unit is no longer a GCD of the
// table: each table a GCD once gave its own unit (10, 5 and 7 ms among
// them) gets the fixed 100 µs quantum, so a class's units depend on its
// own service time alone.
func TestWorkUnitGCD(t *testing.T) {
	cases := []struct {
		name string
		svc  ServiceTimes
	}{
		{"paper example", ServiceTimes{"a": 30 * ms, "b": 10 * ms}},
		{"coprime-ish", ServiceTimes{"a": 15 * ms, "b": 10 * ms}},
		{"single class", ServiceTimes{"a": 7 * ms}},
		{"quantized", ServiceTimes{"a": 30*ms + 20*simnet.Microsecond, "b": 10 * ms}},
		{"empty", ServiceTimes{}},
		{"sub-quantum", ServiceTimes{"a": 10 * simnet.Microsecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := WorkUnit(tc.svc); got != 100*simnet.Microsecond {
				t.Errorf("WorkUnit = %v, want the 100µs quantum", got)
			}
			for class, d := range tc.svc {
				if got, want := tc.svc.Units(class, WorkUnit(tc.svc)), max(float64(d)/100, 1); got != want {
					t.Errorf("Units(%s) = %v, want %v", class, got, want)
				}
			}
		})
	}
}

func TestUnits(t *testing.T) {
	svc := ServiceTimes{"a": 30 * ms, "b": 10 * ms}
	if got := svc.Units("a", 10*ms); got != 3 {
		t.Errorf("Units(a) = %v, want 3", got)
	}
	if got := svc.Units("b", 10*ms); got != 1 {
		t.Errorf("Units(b) = %v, want 1", got)
	}
	// Unknown class and degenerate unit fall back to 1.
	if got := svc.Units("zz", 10*ms); got != 1 {
		t.Errorf("Units(unknown) = %v, want 1", got)
	}
	if got := svc.Units("a", 0); got != 1 {
		t.Errorf("Units(unit=0) = %v, want 1", got)
	}
	// Shorter-than-unit service still counts as one unit.
	svc2 := ServiceTimes{"tiny": ms}
	if got := svc2.Units("tiny", 10*ms); got != 1 {
		t.Errorf("Units(tiny) = %v, want 1", got)
	}
}

func TestThroughputSeriesCountsDepartures(t *testing.T) {
	visits := []trace.Visit{
		{Server: "s", Class: "a", Arrive: 0, Depart: 40 * ms},
		{Server: "s", Class: "a", Arrive: 0, Depart: 60 * ms},
		{Server: "s", Class: "a", Arrive: 0, Depart: 160 * ms},
		// Departure outside the window is dropped.
		{Server: "s", Class: "a", Arrive: 0, Depart: 500 * ms},
	}
	tp, err := ThroughputSeries(visits, Window{Start: 0, End: 200 * ms}, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	if got := tp.Value(0) * 0.1; !almostEq(got, 2) {
		t.Errorf("tp[0] = %v, want 2", got)
	}
	if got := tp.Value(1) * 0.1; !almostEq(got, 1) {
		t.Errorf("tp[1] = %v, want 1", got)
	}
}

func TestNormalizedThroughputDerivesUnit(t *testing.T) {
	visits := fig7Visits()
	svc := ServiceTimes{"Req1": 30 * ms, "Req2": 10 * ms}
	// unit = 0 → derive the unit, the 100 µs quantum, internally.
	norm, err := NormalizedThroughputSeries(visits, svc, 0, Window{Start: 0, End: 300 * ms}, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	if got := norm.Value(0) * 0.1; !almostEq(got, 600) {
		t.Errorf("derived-unit normalized tp = %v, want 600", got)
	}
}

// FuzzDelayHistPercentile checks delayHist's percentile against
// stats.Percentile over the same delays, three bytes each cut to the
// 2^histTop µs where the top bucket clamps: within half the width of
// the bucket holding the upper closest-rank delay, and exact when every
// delay is below 2^(histSub+1) µs, where buckets are one value wide.
func FuzzDelayHistPercentile(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 0, 4, 0, 0, 1, 0, 0, 5, 0, 0}, 10.0)
	f.Add([]byte{0x10, 0x27, 0, 0xff, 0xff, 0xff, 0x40, 0, 0, 0xa0, 0x86, 0x01}, 50.0)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		if len(data) < 3 || math.IsNaN(p) {
			return
		}
		h := make(delayHist, histBuckets)
		var xs []float64
		for i := 0; i+2 < len(data); i += 3 {
			d := (simnet.Duration(data[i]) | simnet.Duration(data[i+1])<<8 | simnet.Duration(data[i+2])<<16) & (1<<histTop - 1)
			h.add(d)
			xs = append(xs, float64(d))
		}
		got, ok := h.percentile(p)
		want, err := stats.Percentile(xs, p)
		if !ok || err != nil {
			t.Fatalf("percentile of %d delays: ok %v, stats error %v", len(xs), ok, err)
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		upper := sorted[int(math.Ceil(min(max(p, 0), 100)/100*float64(len(xs)-1)))]
		width := 1.0
		if i := histBucket(simnet.Duration(upper)); i >= 1<<histSub {
			width = float64(int(1) << (i>>histSub - 1))
		}
		if sorted[len(sorted)-1] < 1<<(histSub+1) && got != want || math.Abs(got-want) > width/2 {
			t.Fatalf("p%v of %v: histogram %v, stats.Percentile %v (bucket width %v)", p, xs, got, want, width)
		}
	})
}
