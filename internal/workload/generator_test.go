package workload

import (
	"math"
	"testing"

	"transientbd/internal/simnet"
)

// instantSubmit completes every transaction after a fixed service delay.
func instantSubmit(e *simnet.Engine, delay simnet.Duration) SubmitFunc {
	return func(_ *Interaction, _ int64, done func()) {
		e.Schedule(delay, done)
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	e := simnet.NewEngine()
	rng := simnet.NewRNG(1)
	ok := Config{Users: 1, Submit: instantSubmit(e, 0)}
	if _, err := NewGenerator(nil, rng, ok); err == nil {
		t.Error("want error for nil engine")
	}
	if _, err := NewGenerator(e, nil, ok); err == nil {
		t.Error("want error for nil rng")
	}
	if _, err := NewGenerator(e, rng, Config{Users: 0, Submit: ok.Submit}); err == nil {
		t.Error("want error for zero users")
	}
	if _, err := NewGenerator(e, rng, Config{Users: 1}); err == nil {
		t.Error("want error for nil submit")
	}
}

func TestClosedLoopThroughputMatchesLittlesLaw(t *testing.T) {
	e := simnet.NewEngine()
	rng := simnet.NewRNG(7)
	think := 2 * simnet.Second
	service := 100 * simnet.Millisecond
	g, err := NewGenerator(e, rng, Config{
		Users:     100,
		ThinkMean: think,
		Submit:    instantSubmit(e, service),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	horizon := 120 * simnet.Second
	if err := e.Run(horizon); err != nil {
		t.Fatal(err)
	}
	// X = N / (Z + R) = 100 / 2.1 ≈ 47.6 tx/s.
	got := float64(len(g.Samples())) / horizon.Seconds()
	want := 100.0 / 2.1
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("throughput = %.1f tx/s, want ~%.1f", got, want)
	}
}

func TestSamplesCarryRTs(t *testing.T) {
	e := simnet.NewEngine()
	rng := simnet.NewRNG(3)
	service := 50 * simnet.Millisecond
	g, err := NewGenerator(e, rng, Config{
		Users:     10,
		ThinkMean: simnet.Second,
		Submit:    instantSubmit(e, service),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	if err := e.Run(30 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	samples := g.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range samples {
		if s.RT() != service {
			t.Fatalf("RT = %v, want %v", s.RT(), service)
		}
		if s.Class == "" || s.TxnID == 0 {
			t.Fatalf("sample missing metadata: %+v", s)
		}
	}
	rts := ResponseTimesSeconds(samples)
	if len(rts) != len(samples) || math.Abs(rts[0]-0.05) > 1e-9 {
		t.Errorf("ResponseTimesSeconds wrong: %v", rts[0])
	}
}

func TestRecordFromDropsRampUp(t *testing.T) {
	e := simnet.NewEngine()
	rng := simnet.NewRNG(3)
	g, err := NewGenerator(e, rng, Config{
		Users:      10,
		ThinkMean:  simnet.Second,
		Submit:     instantSubmit(e, 10*simnet.Millisecond),
		RecordFrom: 10 * simnet.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	if err := e.Run(30 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	for _, s := range g.Samples() {
		if s.Issued < 10*simnet.Second {
			t.Fatalf("sample issued at %v recorded despite RecordFrom", s.Issued)
		}
	}
	// Issued counts everything including ramp-up.
	if g.Issued() <= int64(len(g.Samples())) {
		t.Errorf("Issued = %d should exceed recorded %d", g.Issued(), len(g.Samples()))
	}
}

func TestMixSelectionFollowsWeights(t *testing.T) {
	e := simnet.NewEngine()
	rng := simnet.NewRNG(11)
	mix := []Interaction{
		{Name: "heavy", Weight: 9},
		{Name: "light", Weight: 1},
	}
	counts := make(map[string]int)
	g, err := NewGenerator(e, rng, Config{
		Users:     50,
		ThinkMean: 100 * simnet.Millisecond,
		Mix:       mix,
		Submit: func(ix *Interaction, _ int64, done func()) {
			counts[ix.Name]++
			e.Schedule(simnet.Millisecond, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	if err := e.Run(20 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	total := counts["heavy"] + counts["light"]
	if total < 1000 {
		t.Fatalf("too few transactions: %d", total)
	}
	frac := float64(counts["heavy"]) / float64(total)
	if math.Abs(frac-0.9) > 0.03 {
		t.Errorf("heavy fraction = %.3f, want ~0.9", frac)
	}
}

func TestBurstModulationRaisesThroughput(t *testing.T) {
	run := func(burst BurstConfig) float64 {
		e := simnet.NewEngine()
		rng := simnet.NewRNG(13)
		g, err := NewGenerator(e, rng, Config{
			Users:     200,
			ThinkMean: 2 * simnet.Second,
			Burst:     burst,
			Submit:    instantSubmit(e, simnet.Millisecond),
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		horizon := 300 * simnet.Second
		if err := e.Run(horizon); err != nil {
			t.Fatal(err)
		}
		return float64(len(g.Samples())) / horizon.Seconds()
	}
	plain := run(BurstConfig{})
	bursty := run(BurstConfig{Factor: 3, OnMean: simnet.Second, OffMean: 4 * simnet.Second})
	if bursty <= plain*1.05 {
		t.Errorf("bursty throughput %.1f not clearly above plain %.1f", bursty, plain)
	}
}

func TestBurstDisabledByZeroConfig(t *testing.T) {
	cases := []BurstConfig{
		{},
		{Factor: 1, OnMean: simnet.Second, OffMean: simnet.Second},
		{Factor: 2, OnMean: 0, OffMean: simnet.Second},
		{Factor: 2, OnMean: simnet.Second, OffMean: 0},
	}
	for i, b := range cases {
		if b.enabled() {
			t.Errorf("case %d: config %+v should be disabled", i, b)
		}
	}
	if !(BurstConfig{Factor: 2, OnMean: 1, OffMean: 1}).enabled() {
		t.Error("valid burst config reported disabled")
	}
}

func TestBurstStateFlips(t *testing.T) {
	e := simnet.NewEngine()
	rng := simnet.NewRNG(17)
	g, err := NewGenerator(e, rng, Config{
		Users:     1,
		ThinkMean: 10 * simnet.Second,
		Burst:     BurstConfig{Factor: 2, OnMean: 100 * simnet.Millisecond, OffMean: 100 * simnet.Millisecond},
		Submit:    instantSubmit(e, simnet.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	flips := 0
	last := g.BurstOn()
	for i := 0; i < 200; i++ {
		if err := e.Run(simnet.Time(i+1) * 50 * simnet.Millisecond); err != nil {
			t.Fatal(err)
		}
		if g.BurstOn() != last {
			flips++
			last = g.BurstOn()
		}
	}
	if flips < 10 {
		t.Errorf("burst flips = %d, want many over 10s with 100ms means", flips)
	}
}

func TestInFlightAccounting(t *testing.T) {
	e := simnet.NewEngine()
	rng := simnet.NewRNG(1)
	var release []func()
	g, err := NewGenerator(e, rng, Config{
		Users:     5,
		ThinkMean: simnet.Millisecond,
		Submit: func(_ *Interaction, _ int64, done func()) {
			release = append(release, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	if g.InFlight() != 5 {
		t.Errorf("InFlight = %d, want 5 (all users blocked)", g.InFlight())
	}
	for _, done := range release {
		done()
	}
	if g.InFlight() != 0 {
		t.Errorf("InFlight after completion = %d, want 0", g.InFlight())
	}
}
