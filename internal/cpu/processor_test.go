package cpu

import (
	"math"
	"testing"

	"transientbd/internal/simnet"
)

func newTestProcessor(t *testing.T, e *simnet.Engine, cfg Config) *Processor {
	t.Helper()
	p, err := NewProcessor(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTableII(t *testing.T) {
	ps := TableII()
	if len(ps) != 5 {
		t.Fatalf("TableII has %d states, want 5", len(ps))
	}
	want := map[string]int{"P0": 2261, "P1": 2128, "P4": 1729, "P5": 1596, "P8": 1197}
	for _, s := range ps {
		if want[s.Name] != s.MHz {
			t.Errorf("%s = %d MHz, want %d", s.Name, s.MHz, want[s.Name])
		}
	}
	// The processor reads P0 as its nominal frequency: fastest first.
	for i := 1; i < len(ps); i++ {
		if ps[i].MHz >= ps[i-1].MHz {
			t.Errorf("TableII not ordered fastest first at index %d", i)
		}
	}
	// P8 is roughly half of P0, as the paper notes.
	ratio := float64(ps[4].MHz) / float64(ps[0].MHz)
	if ratio < 0.5 || ratio > 0.56 {
		t.Errorf("P8/P0 ratio = %.3f, want ~0.53 (\"nearly half\")", ratio)
	}
}

func TestNewProcessorValidation(t *testing.T) {
	e := simnet.NewEngine()
	if _, err := NewProcessor(nil, Config{Cores: 1}); err == nil {
		t.Error("want error for nil engine")
	}
	if _, err := NewProcessor(e, Config{Cores: 0}); err == nil {
		t.Error("want error for zero cores")
	}
}

func TestSingleJobCompletes(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1})
	var doneAt simnet.Time = -1
	p.Submit(10*simnet.Millisecond, func() { doneAt = e.Now() })
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	if doneAt != 10*simnet.Millisecond {
		t.Errorf("job finished at %v, want 10ms", doneAt)
	}
}

func TestJobsQueueBeyondCores(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 2})
	var finished []simnet.Time
	for i := 0; i < 4; i++ {
		p.Submit(10*simnet.Millisecond, func() { finished = append(finished, e.Now()) })
	}
	if p.RunningLen() != 2 || p.QueueLen() != 2 {
		t.Fatalf("running=%d queue=%d, want 2/2", p.RunningLen(), p.QueueLen())
	}
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	if len(finished) != 4 {
		t.Fatalf("finished %d jobs, want 4", len(finished))
	}
	// First two at 10ms, next two at 20ms.
	if finished[0] != 10*simnet.Millisecond || finished[1] != 10*simnet.Millisecond {
		t.Errorf("first wave at %v,%v; want 10ms", finished[0], finished[1])
	}
	if finished[2] != 20*simnet.Millisecond || finished[3] != 20*simnet.Millisecond {
		t.Errorf("second wave at %v,%v; want 20ms", finished[2], finished[3])
	}
}

func TestLowerPStateStretchesServiceTime(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1, Governor: FixedGovernor{State: 4}}) // P8
	var doneAt simnet.Time = -1
	p.Submit(10*simnet.Millisecond, func() { doneAt = e.Now() })
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	// P8 = 1197 MHz vs P0 = 2261 MHz: stretch factor 2261/1197 ≈ 1.889.
	want := 10.0 * 2261.0 / 1197.0
	got := doneAt.Millis()
	if math.Abs(got-want) > 0.01 {
		t.Errorf("P8 job finished at %.3fms, want ~%.3fms", got, want)
	}
}

func TestMidJobStateChange(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1})
	var doneAt simnet.Time = -1
	p.Submit(10*simnet.Millisecond, func() { doneAt = e.Now() })
	// Halve the speed at 5ms: 5ms of work remains, takes 5*1.889 = 9.44ms.
	e.Schedule(5*simnet.Millisecond, func() { p.ForceState(4) })
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	want := 5 + 5*2261.0/1197.0
	if math.Abs(doneAt.Millis()-want) > 0.01 {
		t.Errorf("finished at %.3fms, want ~%.3fms", doneAt.Millis(), want)
	}
	if p.Transitions() != 1 {
		t.Errorf("Transitions = %d, want 1", p.Transitions())
	}
}

func TestPauseFreezesProgress(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1})
	var doneAt simnet.Time = -1
	p.Submit(10*simnet.Millisecond, func() { doneAt = e.Now() })
	// Pause [4ms, 54ms): 50ms freeze in the middle.
	e.Schedule(4*simnet.Millisecond, func() { p.Pause() })
	e.Schedule(54*simnet.Millisecond, func() { p.Resume() })
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	if doneAt != 60*simnet.Millisecond {
		t.Errorf("finished at %v, want 60ms (10ms work + 50ms pause)", doneAt)
	}
}

func TestPauseIsIdempotent(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1})
	p.Pause()
	p.Pause()
	if !p.Paused() {
		t.Error("should be paused")
	}
	p.Resume()
	p.Resume()
	if p.Paused() {
		t.Error("should be resumed")
	}
}

func TestSubmitWhilePausedDefersStart(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1})
	var doneAt simnet.Time = -1
	p.Pause()
	p.Submit(10*simnet.Millisecond, func() { doneAt = e.Now() })
	e.Schedule(30*simnet.Millisecond, func() { p.Resume() })
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	if doneAt != 40*simnet.Millisecond {
		t.Errorf("finished at %v, want 40ms", doneAt)
	}
}

func TestCancelRunningJob(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1})
	called := false
	j := p.Submit(10*simnet.Millisecond, func() { called = true })
	queuedDone := false
	p.Submit(5*simnet.Millisecond, func() { queuedDone = true })
	e.Schedule(2*simnet.Millisecond, func() {
		if !p.Cancel(j) {
			t.Error("Cancel running job returned false")
		}
	})
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("canceled job's callback ran")
	}
	if !queuedDone {
		t.Error("queued job did not start after cancel freed the core")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1})
	p.Submit(10*simnet.Millisecond, nil)
	called := false
	j := p.Submit(10*simnet.Millisecond, func() { called = true })
	if !p.Cancel(j) {
		t.Error("Cancel queued job returned false")
	}
	if p.Cancel(j) {
		t.Error("double cancel returned true")
	}
	if p.Cancel(nil) {
		t.Error("Cancel(nil) returned true")
	}
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("canceled queued job ran")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 2})
	// One core busy for 50ms out of a 100ms window on a 2-core machine:
	// utilization = 0.25.
	base := p.BusyCoreMicros()
	start := e.Now()
	p.Submit(50*simnet.Millisecond, nil)
	if err := e.Run(100 * simnet.Millisecond); err != nil {
		t.Fatal(err)
	}
	util := p.Utilization(base, start)
	if math.Abs(util-0.25) > 1e-6 {
		t.Errorf("utilization = %v, want 0.25", util)
	}
}

func TestUtilizationDuringPauseCountsBusy(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 2})
	base := p.BusyCoreMicros()
	start := e.Now()
	p.Pause()
	if err := e.Run(100 * simnet.Millisecond); err != nil {
		t.Fatal(err)
	}
	p.Resume()
	util := p.Utilization(base, start)
	if math.Abs(util-1.0) > 1e-6 {
		t.Errorf("paused utilization = %v, want 1.0 (GC spins the CPU)", util)
	}
}

// A governed CPU starts at the slowest P-state (power-saving idle), a
// FixedGovernor at its own state, clamped to the table.
func TestProcessorStartState(t *testing.T) {
	slowest := len(TableII()) - 1
	cases := []struct {
		name string
		gov  Governor
		want int
	}{
		{"default", nil, 0},
		{"fixed", FixedGovernor{State: 2}, 2},
		{"fixed-clamped", FixedGovernor{State: 99}, slowest},
		{"step", StepGovernor{UpThreshold: 0.8, DownThreshold: 0.4}, slowest},
		{"ondemand", OndemandGovernor{Target: 0.8}, slowest},
	}
	for _, c := range cases {
		p := newTestProcessor(t, simnet.NewEngine(), Config{Cores: 1, Governor: c.gov})
		if p.State() != c.want {
			t.Errorf("%s: start state = P[%d], want P[%d]", c.name, p.State(), c.want)
		}
		if p.Transitions() != 0 {
			t.Errorf("%s: transitions at start = %d, want 0", c.name, p.Transitions())
		}
	}
}

func TestStepGovernorRampsUpUnderLoad(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{
		Cores:         1,
		Governor:      StepGovernor{UpThreshold: 0.8, DownThreshold: 0.4},
		ControlPeriod: 100 * simnet.Millisecond,
	})
	p.Start()
	// Saturate the CPU: always one job pending.
	var feed func()
	feed = func() { p.Submit(5*simnet.Millisecond, feed) }
	feed()
	if err := e.Run(2 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	if p.State() != 0 {
		t.Errorf("state after sustained load = P[%d], want P0 (index 0)", p.State())
	}
	// One step per period: from index 4 to 0 takes >= 4 transitions.
	if p.Transitions() < 4 {
		t.Errorf("transitions = %d, want >= 4 (one step per period)", p.Transitions())
	}
}

func TestStepGovernorDropsWhenIdle(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{
		Cores:         1,
		Governor:      StepGovernor{UpThreshold: 0.8, DownThreshold: 0.4},
		ControlPeriod: 100 * simnet.Millisecond,
	})
	p.ForceState(0)
	p.Start()
	if err := e.Run(2 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	if p.State() != len(TableII())-1 {
		t.Errorf("idle state = P[%d], want slowest", p.State())
	}
}

func TestStepGovernorHoldsInBand(t *testing.T) {
	g := StepGovernor{UpThreshold: 0.8, DownThreshold: 0.4}
	if got := g.Decide(0.6, 2, 5); got != 2 {
		t.Errorf("in-band decision = %d, want hold at 2", got)
	}
	if got := g.Decide(0.95, 0, 5); got != 0 {
		t.Errorf("already fastest = %d, want 0", got)
	}
	if got := g.Decide(0.1, 4, 5); got != 4 {
		t.Errorf("already slowest = %d, want 4", got)
	}
}

func TestFixedGovernorClamps(t *testing.T) {
	g := FixedGovernor{State: 99}
	if got := g.Decide(0.5, 0, 5); got != 4 {
		t.Errorf("clamped fixed state = %d, want 4", got)
	}
	g2 := FixedGovernor{State: -1}
	if got := g2.Decide(0.5, 0, 5); got != 0 {
		t.Errorf("clamped fixed state = %d, want 0", got)
	}
}

func TestOnStateChangeCallback(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1})
	var states []int
	p.OnStateChange(func(s int) { states = append(states, s) })
	p.ForceState(3)
	p.ForceState(1)
	if len(states) != 2 || states[0] != 3 || states[1] != 1 {
		t.Errorf("callbacks = %v, want [3 1]", states)
	}
}

func TestStateResidency(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1})
	if err := e.Run(100 * simnet.Millisecond); err != nil {
		t.Fatal(err)
	}
	p.ForceState(4)
	if err := e.Run(300 * simnet.Millisecond); err != nil {
		t.Fatal(err)
	}
	res := p.StateResidency()
	if math.Abs(res[0]-1.0/3.0) > 0.01 {
		t.Errorf("P0 residency = %v, want ~1/3", res[0])
	}
	if math.Abs(res[4]-2.0/3.0) > 0.01 {
		t.Errorf("P8 residency = %v, want ~2/3", res[4])
	}
}

func TestFIFOOrder(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1})
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		p.Submit(simnet.Millisecond, func() { order = append(order, i) })
	}
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
}

func TestZeroWorkJob(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1})
	done := false
	p.Submit(0, func() { done = true })
	if err := e.Run(simnet.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("zero-work job did not complete")
	}
	p2 := newTestProcessor(t, e, Config{Cores: 1})
	done2 := false
	p2.Submit(-5, func() { done2 = true })
	if err := e.Run(2 * simnet.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !done2 {
		t.Error("negative-work job did not complete")
	}
}

func TestOndemandGovernorJumpsToFit(t *testing.T) {
	table := TableII()
	g := OndemandGovernor{Target: 0.8}
	// Pegged at the slowest state: the queue hides true demand, so the
	// governor jumps straight to P0.
	if got := g.Decide(1.0, 4, len(table)); got != 0 {
		t.Errorf("pegged CPU decision = %d, want jump to P0", got)
	}
	// Partial load at P8 (0.6 util → 0.32 P0-equivalent): P4 runs it at
	// ~0.42 ≤ 0.8, but so does P8 itself (0.6 ≤ 0.8) — slowest fit wins.
	if got := g.Decide(0.6, 4, len(table)); got != 4 {
		t.Errorf("fitting decision = %d, want hold at slowest fit", got)
	}
	// Moderate load at P0 steps down as far as still fits: demand 0.4 at
	// P0 → P8 predicts 0.4×2261/1197 ≈ 0.76 ≤ 0.8.
	if got := g.Decide(0.4, 0, len(table)); got != len(table)-1 {
		t.Errorf("step-down decision = %d, want slowest fitting state", got)
	}
	// Idle drops straight to the slowest state.
	if got := g.Decide(0.01, 0, len(table)); got != len(table)-1 {
		t.Errorf("idle decision = %d, want slowest", got)
	}
	// Saturated at P0 stays at P0.
	if got := g.Decide(1.0, 0, len(table)); got != 0 {
		t.Errorf("saturated decision = %d, want 0", got)
	}
}

func TestOndemandGovernorDegenerateInputs(t *testing.T) {
	g := OndemandGovernor{Target: 0.8}
	// Mismatched table length: hold.
	if got := g.Decide(0.5, 2, 3); got != 2 {
		t.Errorf("mismatched table decision = %d, want hold", got)
	}
	bad := OndemandGovernor{Target: 0}
	if got := bad.Decide(0.5, 1, 5); got != 1 {
		t.Errorf("zero-target decision = %d, want hold", got)
	}
}

func TestOndemandGovernorTracksBurstFasterThanStep(t *testing.T) {
	run := func(gov Governor) simnet.Time {
		e := simnet.NewEngine()
		p, err := NewProcessor(e, Config{
			Cores:         1,
			Governor:      gov,
			ControlPeriod: 100 * simnet.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		// Saturate continuously; record when P0 is first reached.
		var reached simnet.Time = -1
		p.OnStateChange(func(s int) {
			if s == 0 && reached < 0 {
				reached = e.Now()
			}
		})
		var feed func()
		feed = func() { p.Submit(5*simnet.Millisecond, feed) }
		feed()
		if err := e.Run(5 * simnet.Second); err != nil {
			t.Fatal(err)
		}
		return reached
	}
	stepAt := run(StepGovernor{UpThreshold: 0.9, DownThreshold: 0.4})
	ondemandAt := run(OndemandGovernor{Target: 0.8})
	if ondemandAt < 0 || stepAt < 0 {
		t.Fatal("a governor never reached P0 under saturation")
	}
	if ondemandAt >= stepAt {
		t.Errorf("ondemand reached P0 at %v, step at %v; ondemand should be faster", ondemandAt, stepAt)
	}
}

func TestEnergyJoulesIdleVsBusy(t *testing.T) {
	run := func(busy bool) float64 {
		e := simnet.NewEngine()
		p := newTestProcessor(t, e, Config{Cores: 2})
		if busy {
			var feed func()
			feed = func() { p.Submit(10*simnet.Millisecond, feed) }
			feed()
			feed() // both cores
		}
		if err := e.Run(10 * simnet.Second); err != nil {
			t.Fatal(err)
		}
		return p.EnergyJoules()
	}
	idle := run(false)
	busy := run(true)
	// Idle: 2 cores × 4W × 10s = 80J.
	if math.Abs(idle-80) > 1 {
		t.Errorf("idle energy = %v J, want ~80", idle)
	}
	// Busy at P0: + 2 cores × 12W × 10s = 240J dynamic.
	if math.Abs(busy-320) > 5 {
		t.Errorf("busy energy = %v J, want ~320", busy)
	}
}

func TestEnergyLowerAtSlowState(t *testing.T) {
	run := func(state int) float64 {
		e := simnet.NewEngine()
		p := newTestProcessor(t, e, Config{Cores: 1, Governor: FixedGovernor{State: state}})
		var feed func()
		feed = func() { p.Submit(10*simnet.Millisecond, feed) }
		feed()
		if err := e.Run(10 * simnet.Second); err != nil {
			t.Fatal(err)
		}
		return p.EnergyJoules()
	}
	fast := run(0)
	slow := run(4)
	if slow >= fast {
		t.Errorf("P8 energy %v J not below P0 %v J for a pegged core", slow, fast)
	}
}

func TestEnergyZeroAtTimeZero(t *testing.T) {
	e := simnet.NewEngine()
	p := newTestProcessor(t, e, Config{Cores: 1})
	if got := p.EnergyJoules(); got != 0 {
		t.Errorf("energy at t=0 = %v, want 0", got)
	}
}
