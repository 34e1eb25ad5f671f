package core

import (
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

// TestNormalizationFig7 replicates the paper's Fig 7 numbers exactly.
func TestNormalizationFig7(t *testing.T) {
	visits := fig7Visits()
	w := Window{Start: 0, End: 300 * ms}

	svc, err := EstimateServiceTimes(visits, 10)
	if err != nil {
		t.Fatal(err)
	}
	if svc["Req1"] != 30*ms {
		t.Errorf("Req1 service = %v, want 30ms", svc["Req1"])
	}
	if svc["Req2"] != 10*ms {
		t.Errorf("Req2 service = %v, want 10ms", svc["Req2"])
	}
	unit := WorkUnit(svc)
	if unit != 10*ms {
		t.Errorf("work unit = %v, want 10ms (GCD of 30ms and 10ms)", unit)
	}

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
	if svc["page"] != 10*ms {
		t.Errorf("service = %v, want 10ms (residence − downstream)", svc["page"])
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
	if svc["q"] != 10*ms {
		t.Errorf("service = %v, want 10ms", svc["q"])
	}
}

func TestWorkUnitGCD(t *testing.T) {
	cases := []struct {
		name string
		svc  ServiceTimes
		want simnet.Duration
	}{
		{"paper example", ServiceTimes{"a": 30 * ms, "b": 10 * ms}, 10 * ms},
		{"coprime-ish", ServiceTimes{"a": 15 * ms, "b": 10 * ms}, 5 * ms},
		{"single class", ServiceTimes{"a": 7 * ms}, 7 * ms},
		{"quantized", ServiceTimes{"a": 30*ms + 20*simnet.Microsecond, "b": 10 * ms}, 10 * ms},
		{"empty", ServiceTimes{}, 100 * simnet.Microsecond},
		{"sub-quantum", ServiceTimes{"a": 10 * simnet.Microsecond}, 100 * simnet.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := WorkUnit(tc.svc); got != tc.want {
				t.Errorf("WorkUnit = %v, want %v", got, tc.want)
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
	// unit = 0 → derive GCD internally.
	norm, err := NormalizedThroughputSeries(visits, svc, 0, Window{Start: 0, End: 300 * ms}, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	if got := norm.Value(0) * 0.1; !almostEq(got, 6) {
		t.Errorf("derived-unit normalized tp = %v, want 6", got)
	}
}
