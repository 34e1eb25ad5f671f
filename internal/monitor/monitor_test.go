package monitor

import (
	"math"
	"testing"

	"transientbd/internal/cpu"
	"transientbd/internal/simnet"
)

type fakeTarget struct {
	name string
	proc *cpu.Processor
}

func (f *fakeTarget) Name() string              { return f.name }
func (f *fakeTarget) Processor() *cpu.Processor { return f.proc }

func newTarget(t *testing.T, e *simnet.Engine, name string, cores int) *fakeTarget {
	t.Helper()
	proc, err := cpu.NewProcessor(e, cpu.Config{Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	return &fakeTarget{name: name, proc: proc}
}

func TestNewSamplerValidation(t *testing.T) {
	e := simnet.NewEngine()
	tg := newTarget(t, e, "a", 1)
	if _, err := NewSampler(nil, []Target{tg}, simnet.Second); err == nil {
		t.Error("want error for nil engine")
	}
	if _, err := NewSampler(e, nil, simnet.Second); err == nil {
		t.Error("want error for no targets")
	}
	if _, err := NewSampler(e, []Target{tg}, 0); err == nil {
		t.Error("want error for zero period")
	}
	if _, err := NewSampler(e, []Target{tg, tg}, simnet.Second); err == nil {
		t.Error("want error for duplicate targets")
	}
}

func TestSamplerReadsUtilization(t *testing.T) {
	e := simnet.NewEngine()
	tg := newTarget(t, e, "mysql", 2)
	s, err := NewSampler(e, []Target{tg}, 100*simnet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// Busy one core from 0 to 100ms (util 0.5 on 2 cores), idle after.
	tg.proc.Submit(100*simnet.Millisecond, nil)
	if err := e.Run(300 * simnet.Millisecond); err != nil {
		t.Fatal(err)
	}
	samples := s.Samples("mysql")
	if len(samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(samples))
	}
	if math.Abs(samples[0].Util-0.5) > 1e-9 {
		t.Errorf("sample 0 util = %v, want 0.5", samples[0].Util)
	}
	if samples[1].Util != 0 || samples[2].Util != 0 {
		t.Errorf("idle samples = %v/%v, want 0", samples[1].Util, samples[2].Util)
	}
}

// A 1-second sampler cannot see a 50ms congestion episode as saturation:
// the burst is averaged away — the paper's core motivation.
func TestCoarseSamplingMasksTransientBurst(t *testing.T) {
	e := simnet.NewEngine()
	tg := newTarget(t, e, "mysql", 1)
	coarse, err := NewSampler(e, []Target{tg}, simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := NewSampler(e, []Target{tg}, 50*simnet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	coarse.Start()
	fine.Start()
	// 50ms of full saturation at t=200ms inside an otherwise idle second.
	e.Schedule(200*simnet.Millisecond, func() {
		tg.proc.Submit(50*simnet.Millisecond, nil)
	})
	if err := e.Run(2 * simnet.Second); err != nil {
		t.Fatal(err)
	}
	coarseMax := coarse.MaxUtil("mysql", 0, 2*simnet.Second)
	fineMax := fine.MaxUtil("mysql", 0, 2*simnet.Second)
	if coarseMax > 0.1 {
		t.Errorf("coarse max util = %.3f, want burst averaged away (<0.1)", coarseMax)
	}
	if fineMax < 0.95 {
		t.Errorf("fine max util = %.3f, want ~1.0 (burst visible)", fineMax)
	}
}

func TestAverageWindow(t *testing.T) {
	e := simnet.NewEngine()
	tg := newTarget(t, e, "a", 1)
	s, err := NewSampler(e, []Target{tg}, 100*simnet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	tg.proc.Submit(150*simnet.Millisecond, nil) // busy 1.5 periods
	if err := e.Run(400 * simnet.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Samples at 100ms (1.0), 200ms (0.5), 300ms (0), 400ms (0).
	avg := s.Average("a", 0, 450*simnet.Millisecond)
	if math.Abs(avg-0.375) > 1e-9 {
		t.Errorf("Average = %v, want 0.375", avg)
	}
	if got := s.Average("a", 250*simnet.Millisecond, 450*simnet.Millisecond); got != 0 {
		t.Errorf("late-window Average = %v, want 0", got)
	}
	if got := s.Average("nosuch", 0, simnet.Second); got != 0 {
		t.Errorf("unknown target Average = %v, want 0", got)
	}
}

func TestStartIdempotent(t *testing.T) {
	e := simnet.NewEngine()
	tg := newTarget(t, e, "a", 1)
	s, err := NewSampler(e, []Target{tg}, 100*simnet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Start() // second call must not double sampling
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Samples("a")); got != 10 {
		t.Errorf("samples = %d, want 10 (no double ticks)", got)
	}
}

func TestMultipleTargets(t *testing.T) {
	e := simnet.NewEngine()
	a := newTarget(t, e, "a", 1)
	b := newTarget(t, e, "b", 1)
	s, err := NewSampler(e, []Target{a, b}, 100*simnet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	a.proc.Submit(100*simnet.Millisecond, nil)
	if err := e.Run(100 * simnet.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s.Samples("a")[0].Util != 1.0 {
		t.Errorf("a util = %v, want 1", s.Samples("a")[0].Util)
	}
	if s.Samples("b")[0].Util != 0 {
		t.Errorf("b util = %v, want 0", s.Samples("b")[0].Util)
	}
}

func TestSamplerStop(t *testing.T) {
	e := simnet.NewEngine()
	tg := newTarget(t, e, "a", 1)
	s, err := NewSampler(e, []Target{tg}, 100*simnet.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	e.Schedule(250*simnet.Millisecond, s.Stop)
	if err := e.Run(simnet.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Samples("a")); got != 2 {
		t.Errorf("samples after stop = %d, want 2", got)
	}
	s.Stop() // idempotent
	// Stop before Start is harmless too.
	s2, err := NewSampler(e, []Target{tg}, simnet.Second)
	if err != nil {
		t.Fatal(err)
	}
	s2.Stop()
}
