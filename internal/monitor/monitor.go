// Package monitor implements the conventional coarse-grained monitoring
// baseline the paper argues is insufficient (§I, §II-B): a sysstat/esxtop
// style sampler that reads each server's resource counters at a fixed
// period (1 s for Sysstat, 2 s for esxtop in the paper's setup). The paper
// measured sampling's own CPU cost at about 6% at a 100 ms period and 12%
// at 20 ms — why sub-second sampling is impractical and why it resorts to
// passive network tracing. The sampler does not charge that cost.
package monitor

import (
	"errors"
	"fmt"

	"transientbd/internal/cpu"
	"transientbd/internal/simnet"
)

// Target is a monitorable server: a name plus its processor.
type Target interface {
	Name() string
	Processor() *cpu.Processor
}

// Sample is one utilization reading for one server.
type Sample struct {
	At   simnet.Time
	Util float64
}

// Sampler periodically reads utilization from a set of targets.
type Sampler struct {
	engine  *simnet.Engine
	period  simnet.Duration
	targets []Target

	lastBusy map[string]float64
	lastAt   simnet.Time
	samples  map[string][]Sample
	started  bool
	ticker   *simnet.Ticker
}

// NewSampler creates a sampler that reads the given targets every period.
func NewSampler(engine *simnet.Engine, targets []Target, period simnet.Duration) (*Sampler, error) {
	if engine == nil {
		return nil, errors.New("monitor: nil engine")
	}
	if len(targets) == 0 {
		return nil, errors.New("monitor: no targets")
	}
	if period <= 0 {
		return nil, fmt.Errorf("monitor: period must be positive, got %v", period)
	}
	seen := make(map[string]bool, len(targets))
	for _, tg := range targets {
		if seen[tg.Name()] {
			return nil, fmt.Errorf("monitor: duplicate target %q", tg.Name())
		}
		seen[tg.Name()] = true
	}
	return &Sampler{
		engine:   engine,
		period:   period,
		targets:  targets,
		lastBusy: make(map[string]float64, len(targets)),
		samples:  make(map[string][]Sample, len(targets)),
	}, nil
}

// Start begins sampling. The first reading lands one period from now.
func (s *Sampler) Start() {
	if s.started {
		return
	}
	s.started = true
	s.lastAt = s.engine.Now()
	for _, tg := range s.targets {
		s.lastBusy[tg.Name()] = tg.Processor().BusyCoreMicros()
	}
	// Construction cannot fail: the engine, period and callback were
	// validated by NewSampler.
	ticker, err := simnet.NewTicker(s.engine, s.period, s.tick)
	if err != nil {
		panic(fmt.Sprintf("monitor: ticker: %v", err))
	}
	s.ticker = ticker
}

// Stop halts sampling; existing samples remain readable.
func (s *Sampler) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
	}
}

func (s *Sampler) tick() {
	now := s.engine.Now()
	span := float64(now - s.lastAt)
	for _, tg := range s.targets {
		name := tg.Name()
		busy := tg.Processor().BusyCoreMicros()
		util := 0.0
		if span > 0 {
			util = (busy - s.lastBusy[name]) / (span * float64(tg.Processor().Cores()))
		}
		if util > 1 {
			util = 1
		}
		s.samples[name] = append(s.samples[name], Sample{At: now, Util: util})
		s.lastBusy[name] = busy
	}
	s.lastAt = now
}

// Samples returns the readings for one target (a copy).
func (s *Sampler) Samples(name string) []Sample {
	src := s.samples[name]
	out := make([]Sample, len(src))
	copy(out, src)
	return out
}

// Average returns the mean utilization for one target over samples taken
// in [from, to).
func (s *Sampler) Average(name string, from, to simnet.Time) float64 {
	var sum float64
	var n int
	for _, smp := range s.samples[name] {
		if smp.At >= from && smp.At < to {
			sum += smp.Util
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxUtil returns the highest single-sample utilization for one target in
// [from, to) — what a dashboard's peak detector would see.
func (s *Sampler) MaxUtil(name string, from, to simnet.Time) float64 {
	best := 0.0
	for _, smp := range s.samples[name] {
		if smp.At >= from && smp.At < to && smp.Util > best {
			best = smp.Util
		}
	}
	return best
}
