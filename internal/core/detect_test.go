package core

import (
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

// synthServer simulates a single-class FIFO server with the given service
// time and core count, fed by Poisson arrivals whose rate alternates
// between base and surge (surges create transient congestion). It returns
// the visit log and, optionally, freezes the server during [freezeStart,
// freezeEnd) (nothing completes, arrivals pile up) to create a POI.
type synthConfig struct {
	service     simnet.Duration
	cores       int
	baseRate    float64 // req/s
	surgeRate   float64
	surgeEvery  simnet.Duration
	surgeLen    simnet.Duration
	horizon     simnet.Duration
	freezeStart simnet.Time
	freezeEnd   simnet.Time
	seed        int64
}

func synthServer(cfg synthConfig) []trace.Visit {
	rng := simnet.NewRNG(cfg.seed)
	var visits []trace.Visit
	// Generate arrivals.
	var arrivals []simnet.Time
	var tm simnet.Time
	for tm < cfg.horizon {
		rate := cfg.baseRate
		if cfg.surgeEvery > 0 && tm%cfg.surgeEvery < cfg.surgeLen {
			rate = cfg.surgeRate
		}
		gap := rng.Exp(simnet.Duration(float64(simnet.Second) / rate))
		if gap < 1 {
			gap = 1
		}
		tm += gap
		arrivals = append(arrivals, tm)
	}
	// FIFO multi-core service with optional freeze.
	coreFree := make([]simnet.Time, cfg.cores)
	for _, at := range arrivals {
		// Pick the earliest-free core.
		best := 0
		for c := 1; c < cfg.cores; c++ {
			if coreFree[c] < coreFree[best] {
				best = c
			}
		}
		start := at
		if coreFree[best] > start {
			start = coreFree[best]
		}
		// Freeze window: no service progress inside it.
		svc := simnet.Duration(float64(cfg.service) * (0.95 + 0.1*rng.Float64()))
		end := start + svc
		if cfg.freezeEnd > cfg.freezeStart {
			if start >= cfg.freezeStart && start < cfg.freezeEnd {
				start = cfg.freezeEnd
				end = start + svc
			} else if start < cfg.freezeStart && end > cfg.freezeStart {
				end += cfg.freezeEnd - cfg.freezeStart
			}
		}
		coreFree[best] = end
		visits = append(visits, trace.Visit{
			Server: "s", Class: "q", Arrive: at, Depart: end,
		})
	}
	return visits
}

func TestAnalyzeServerDetectsTransientCongestion(t *testing.T) {
	// Capacity: 2 cores / 5ms = 400 req/s. Base 240 (60%), surges of
	// 800 req/s for 300ms every 3s congest the server transiently.
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
	a, err := AnalyzeServer("s", visits, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.NStar.Saturated {
		t.Fatal("saturation not detected despite surges")
	}
	// The server congests transiently: some but not most intervals.
	if a.CongestedFraction < 0.02 || a.CongestedFraction > 0.5 {
		t.Errorf("congested fraction = %.3f, want transient regime (0.02-0.5)", a.CongestedFraction)
	}
	// Throughput ceiling ≈ 400 req/s. TPMax is in work units/s: a
	// request of the one class is its ~5 ms service time over the 100 µs
	// unit, about 50 units. Expect TPMax within 20% of 400 requests/s.
	if rps := a.NStar.TPMax * float64(a.Unit) / float64(a.ServiceTimes["q"]); rps < 300 || rps > 520 {
		t.Errorf("TPMax = %.0f units/s = %.0f requests/s, want ~400", a.NStar.TPMax, rps)
	}
	// N* should sit near cores × a small queue factor — well below the
	// surge backlog peaks (tens of requests).
	if a.NStar.NStar < 1 || a.NStar.NStar > 20 {
		t.Errorf("N* = %.1f, want small (near core count)", a.NStar.NStar)
	}
}

func TestAnalyzeServerQuietServerNotCongested(t *testing.T) {
	visits := synthServer(synthConfig{
		service:  5 * ms,
		cores:    2,
		baseRate: 100, // 25% utilization, no surges
		horizon:  30 * simnet.Second,
		seed:     2,
	})
	w := Window{Start: 0, End: 30 * simnet.Second}
	a, err := AnalyzeServer("s", visits, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.CongestedFraction > 0.05 {
		t.Errorf("quiet server congested fraction = %.3f, want ~0", a.CongestedFraction)
	}
	if len(a.POIs) != 0 {
		t.Errorf("quiet server POIs = %d, want 0", len(a.POIs))
	}
}

func TestAnalyzeServerDetectsFreezePOI(t *testing.T) {
	// A 400ms freeze (stop-the-world GC analogue) in the middle of a
	// moderately loaded run: load rises, throughput hits zero → POIs.
	visits := synthServer(synthConfig{
		service:     5 * ms,
		cores:       2,
		baseRate:    280,
		surgeRate:   600,
		surgeEvery:  4 * simnet.Second,
		surgeLen:    200 * ms,
		horizon:     30 * simnet.Second,
		freezeStart: 10 * simnet.Second,
		freezeEnd:   10*simnet.Second + 400*ms,
		seed:        3,
	})
	w := Window{Start: 0, End: 30 * simnet.Second}
	a, err := AnalyzeServer("s", visits, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.POIs) == 0 {
		t.Fatal("freeze produced no POIs")
	}
	// POIs must lie within/just after the freeze window.
	for _, idx := range a.POIs {
		at := a.Load.IntervalStart(idx)
		if at < 9500*ms || at > 11*simnet.Second {
			t.Errorf("POI at %v, want inside the freeze around 10s", at)
		}
	}
	// The freeze intervals are congested with near-zero throughput.
	freezeIdx, err := a.Load.Index(10*simnet.Second + 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	if a.States[freezeIdx] != StateCongested {
		t.Errorf("freeze interval state = %v, want congested", a.States[freezeIdx])
	}
	if tp := a.TP.Value(freezeIdx); tp != 0 {
		t.Errorf("freeze interval throughput = %v, want 0", tp)
	}
}

func TestAnalyzeServerStatesPartition(t *testing.T) {
	visits := synthServer(synthConfig{
		service:   5 * ms,
		cores:     2,
		baseRate:  200,
		surgeRate: 700, surgeEvery: 2 * simnet.Second, surgeLen: 250 * ms,
		horizon: 20 * simnet.Second,
		seed:    4,
	})
	w := Window{Start: 0, End: 20 * simnet.Second}
	a, err := AnalyzeServer("s", visits, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.States) != a.Load.Len() {
		t.Fatalf("states len = %d, want %d", len(a.States), a.Load.Len())
	}
	congested := 0
	for i, st := range a.States {
		switch st {
		case StateIdle, StateNormal:
		case StateCongested:
			congested++
		default:
			t.Fatalf("interval %d has invalid state %v", i, st)
		}
	}
	if congested != a.CongestedIntervals {
		t.Errorf("congested count %d != summary %d", congested, a.CongestedIntervals)
	}
}

func TestAnalyzeServerRawThroughputOption(t *testing.T) {
	visits := fig7Visits()
	w := Window{Start: 0, End: 300 * ms}
	a, err := AnalyzeServer("s", visits, w, Options{RawThroughput: true, Interval: 100 * ms})
	if err != nil {
		t.Fatal(err)
	}
	// With RawThroughput the detection series equals the raw one.
	raw, err := ThroughputSeries(visits, w, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	if a.TP.Len() != raw.Len() {
		t.Fatalf("TP has %d intervals, raw series %d", a.TP.Len(), raw.Len())
	}
	for i := 0; i < a.TP.Len(); i++ {
		if a.TP.Value(i) != raw.Value(i) {
			t.Fatal("RawThroughput option not honored")
		}
	}
}

func TestAnalyzeServerSuppliedServiceTimes(t *testing.T) {
	visits := fig7Visits()
	w := Window{Start: 0, End: 300 * ms}
	svc := ServiceTimes{"Req1": 30 * ms, "Req2": 10 * ms}
	a, err := AnalyzeServer("s", visits, w, Options{Interval: 100 * ms, ServiceTimes: svc})
	if err != nil {
		t.Fatal(err)
	}
	if a.Unit != 100*simnet.Microsecond {
		t.Errorf("unit = %v, want the 100µs quantum", a.Unit)
	}
	if got := a.TP.Value(0) * 0.1; !almostEq(got, 600) {
		t.Errorf("normalized tp[0] = %v, want 600 (two 30ms requests)", got)
	}
}

func TestAnalysisPoints(t *testing.T) {
	visits := fig7Visits()
	a, err := AnalyzeServer("s", visits, Window{Start: 0, End: 300 * ms}, Options{Interval: 100 * ms})
	if err != nil {
		t.Fatal(err)
	}
	pts := a.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	if !almostEq(pts[0].Load, 0.6) {
		t.Errorf("point 0 load = %v, want 0.6", pts[0].Load)
	}
}

func TestAnalyzeSystemRanking(t *testing.T) {
	// Two servers: one congests transiently, one is quiet.
	busy := synthServer(synthConfig{
		service: 5 * ms, cores: 2, baseRate: 260,
		surgeRate: 900, surgeEvery: 2 * simnet.Second, surgeLen: 300 * ms,
		horizon: 30 * simnet.Second, seed: 5,
	})
	quiet := synthServer(synthConfig{
		service: 5 * ms, cores: 2, baseRate: 80,
		horizon: 30 * simnet.Second, seed: 6,
	})
	for i := range busy {
		busy[i].Server = "tomcat"
	}
	for i := range quiet {
		quiet[i].Server = "apache"
	}
	all := append(busy, quiet...)
	sys, err := AnalyzeSystem(all, Window{Start: 0, End: 30 * simnet.Second}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Ranking) != 2 {
		t.Fatalf("ranking size = %d, want 2", len(sys.Ranking))
	}
	if sys.Ranking[0].Server != "tomcat" {
		t.Errorf("worst server = %s, want tomcat", sys.Ranking[0].Server)
	}
	if sys.Ranking[0].CongestedFraction <= sys.Ranking[1].CongestedFraction {
		t.Error("ranking not ordered by congested fraction")
	}
	if sys.PerServer["tomcat"] == nil || sys.PerServer["apache"] == nil {
		t.Error("PerServer missing entries")
	}
}

func TestAnalyzeSystemEmpty(t *testing.T) {
	if _, err := AnalyzeSystem(nil, Window{Start: 0, End: simnet.Second}, Options{}); err != ErrNoVisits {
		t.Errorf("err = %v, want ErrNoVisits", err)
	}
}

func TestIntervalStateString(t *testing.T) {
	if StateIdle.String() != "idle" || StateNormal.String() != "normal" || StateCongested.String() != "congested" {
		t.Error("state strings wrong")
	}
	if IntervalState(0).String() != "IntervalState(0)" {
		t.Error("unknown state string wrong")
	}
}

// Interval-length sensitivity (the Fig 8 effect): with a 1s interval the
// transient surges are averaged away, so far fewer congested intervals are
// detected than at 50ms.
func TestIntervalLengthSensitivity(t *testing.T) {
	visits := synthServer(synthConfig{
		service: 5 * ms, cores: 2, baseRate: 240,
		surgeRate: 900, surgeEvery: 3 * simnet.Second, surgeLen: 250 * ms,
		horizon: 60 * simnet.Second, seed: 7,
	})
	w := Window{Start: 0, End: 60 * simnet.Second}
	fine, err := AnalyzeServer("s", visits, w, Options{Interval: 50 * ms})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := AnalyzeServer("s", visits, w, Options{Interval: simnet.Second})
	if err != nil {
		t.Fatal(err)
	}
	fineCongestedTime := float64(fine.CongestedIntervals) * 0.05
	coarseCongestedTime := float64(coarse.CongestedIntervals) * 1.0
	if fine.CongestedIntervals == 0 {
		t.Fatal("fine analysis saw no congestion")
	}
	// The coarse run must miss most of the congestion epochs that the
	// fine run resolves (Fig 8c vs 8b).
	if coarseCongestedTime > fineCongestedTime*3 && coarse.CongestedIntervals > fine.CongestedIntervals {
		t.Errorf("coarse detected more congestion (%d ivals) than fine (%d) — sensitivity inverted",
			coarse.CongestedIntervals, fine.CongestedIntervals)
	}
}
