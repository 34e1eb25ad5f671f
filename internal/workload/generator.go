package workload

import (
	"errors"
	"fmt"

	"transientbd/internal/simnet"
)

// SubmitFunc dispatches one transaction into the system under test. The
// implementation (the n-tier assembly) must invoke done exactly once when
// the response reaches the client.
type SubmitFunc func(ix *Interaction, txnID int64, done func())

// RTSample is one completed transaction's end-to-end response time record.
type RTSample struct {
	TxnID  int64
	Class  string
	Issued simnet.Time
	Done   simnet.Time
}

// RT returns the end-to-end response time.
func (s RTSample) RT() simnet.Duration { return s.Done - s.Issued }

// BurstConfig configures the global ON/OFF burst modulator. While ON, all
// users' think times shrink by Factor, producing correlated load surges —
// the bursty workload component the paper combines with SpeedStep and GC
// effects. Zero-valued config disables bursts.
type BurstConfig struct {
	// Factor divides the think time during a burst ( > 1 ). Zero disables.
	Factor float64
	// OnMean and OffMean are the exponential means of burst and quiet
	// period durations.
	OnMean  simnet.Duration
	OffMean simnet.Duration
}

func (b BurstConfig) enabled() bool {
	return b.Factor > 1 && b.OnMean > 0 && b.OffMean > 0
}

// EffectiveMultiplier returns the time-averaged think-rate multiplier the
// modulation applies: 1 when disabled, otherwise the duty-cycle-weighted
// mean of 1 (off) and Factor (on). Dividing the nominal think time by it
// yields the mean-equivalent think time for analytical models.
func (b BurstConfig) EffectiveMultiplier() float64 {
	if !b.enabled() {
		return 1
	}
	on := float64(b.OnMean)
	off := float64(b.OffMean)
	return (off + on*b.Factor) / (off + on)
}

// OpenLoopConfig switches a Generator from the closed-loop population
// model to an open Poisson arrival process: transactions arrive at a
// configured rate regardless of how many are still in flight, so an
// overloaded system sees its queues grow instead of its offered load
// shrinking. Optional deterministic surges multiply the rate in
// [k·SurgeEvery, k·SurgeEvery+SurgeLen) for every k ≥ 1.
type OpenLoopConfig struct {
	// Rate is the baseline arrival rate in transactions per second.
	// Required.
	Rate float64
	// SurgeFactor multiplies Rate during surge windows; <= 1 disables
	// surges.
	SurgeFactor float64
	// SurgeEvery is the surge period.
	SurgeEvery simnet.Duration
	// SurgeLen is the surge length; must be shorter than SurgeEvery.
	SurgeLen simnet.Duration
}

func (o *OpenLoopConfig) surging(now simnet.Time) bool {
	if o.SurgeFactor <= 1 || o.SurgeEvery <= 0 || o.SurgeLen <= 0 {
		return false
	}
	k := simnet.Duration(now) / o.SurgeEvery
	if k < 1 {
		return false
	}
	return simnet.Duration(now)-k*o.SurgeEvery < o.SurgeLen
}

// rate returns the instantaneous arrival rate at now.
func (o *OpenLoopConfig) rate(now simnet.Time) float64 {
	if o.surging(now) {
		return o.Rate * o.SurgeFactor
	}
	return o.Rate
}

// Config configures a Generator.
type Config struct {
	// Users is the closed-loop population size (the paper's WL number).
	// Ignored when OpenLoop is set.
	Users int
	// ThinkMean is the mean exponential think time between a response and
	// the next request. Defaults to 8.4 s, which together with the default
	// burst modulation (ntier.DefaultBurst) yields an effective mean near
	// the classic RUBBoS 7 s.
	ThinkMean simnet.Duration
	// Burst modulates think times globally.
	Burst BurstConfig
	// Submit dispatches transactions. Required.
	Submit SubmitFunc
	// Mix is the interaction mix. Defaults to BrowseOnlyMix.
	Mix []Interaction
	// RecordFrom drops RT samples issued before this time (ramp-up).
	RecordFrom simnet.Time
	// OpenLoop, when non-nil, replaces the closed-loop population with a
	// Poisson arrival process; Users is ignored.
	OpenLoop *OpenLoopConfig
}

// Generator drives a population of closed-loop users against a system.
type Generator struct {
	engine *simnet.Engine
	rng    *simnet.RNG
	cfg    Config

	weights  []float64
	burstOn  bool
	nextTxn  int64
	inFlight int
	issued   int64
	samples  []RTSample
}

// NewGenerator creates a generator. Start must be called to begin driving
// load.
func NewGenerator(engine *simnet.Engine, rng *simnet.RNG, cfg Config) (*Generator, error) {
	if engine == nil {
		return nil, errors.New("workload: nil engine")
	}
	if rng == nil {
		return nil, errors.New("workload: nil rng")
	}
	if cfg.Users <= 0 && cfg.OpenLoop == nil {
		return nil, fmt.Errorf("workload: users must be positive, got %d", cfg.Users)
	}
	if cfg.OpenLoop != nil && cfg.OpenLoop.Rate <= 0 {
		return nil, fmt.Errorf("workload: open-loop rate must be positive, got %v", cfg.OpenLoop.Rate)
	}
	if cfg.Submit == nil {
		return nil, errors.New("workload: nil submit func")
	}
	if cfg.ThinkMean <= 0 {
		cfg.ThinkMean = 8400 * simnet.Millisecond
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = BrowseOnlyMix()
	}
	weights := make([]float64, len(cfg.Mix))
	for i, ix := range cfg.Mix {
		weights[i] = ix.Weight
	}
	return &Generator{
		engine:  engine,
		rng:     rng,
		cfg:     cfg,
		weights: weights,
	}, nil
}

// Start launches every user. Users' first requests are staggered uniformly
// across one think time so the population does not arrive as a step
// function.
func (g *Generator) Start() {
	if g.cfg.Burst.enabled() {
		g.scheduleBurstFlip()
	}
	if g.cfg.OpenLoop != nil {
		g.scheduleArrival()
		return
	}
	for u := 0; u < g.cfg.Users; u++ {
		stagger := simnet.Duration(g.rng.Float64() * float64(g.cfg.ThinkMean))
		g.engine.Schedule(stagger, g.issue)
	}
}

func (g *Generator) scheduleBurstFlip() {
	var wait simnet.Duration
	if g.burstOn {
		wait = g.rng.Exp(g.cfg.Burst.OnMean)
	} else {
		wait = g.rng.Exp(g.cfg.Burst.OffMean)
	}
	g.engine.Schedule(wait, func() {
		g.burstOn = !g.burstOn
		g.scheduleBurstFlip()
	})
}

// think returns one think-time draw under the current burst state.
func (g *Generator) think() simnet.Duration {
	mean := g.cfg.ThinkMean
	if g.burstOn && g.cfg.Burst.enabled() {
		mean = simnet.Duration(float64(mean) / g.cfg.Burst.Factor)
	}
	return g.rng.Exp(mean)
}

// issue sends one transaction. A closed-loop user re-arms after a think
// time once the response returns; an open-loop arrival re-arms nothing,
// since the arrival process is blind to system state.
func (g *Generator) issue() {
	g.nextTxn++
	txn := g.nextTxn
	ix := &g.cfg.Mix[g.rng.Pick(g.weights)]
	issued := g.engine.Now()
	g.inFlight++
	g.issued++
	g.cfg.Submit(ix, txn, func() {
		g.inFlight--
		if issued >= g.cfg.RecordFrom {
			g.samples = append(g.samples, RTSample{
				TxnID:  txn,
				Class:  ix.Name,
				Issued: issued,
				Done:   g.engine.Now(),
			})
		}
		if g.cfg.OpenLoop == nil {
			g.engine.Schedule(g.think(), g.issue)
		}
	})
}

// scheduleArrival arms the next open-loop arrival. The interarrival is
// exponential at the instantaneous rate (surges and burst modulation
// both raise it), re-evaluated at each arrival, so rate changes take
// effect within one interarrival time.
func (g *Generator) scheduleArrival() {
	rate := g.cfg.OpenLoop.rate(g.engine.Now())
	if g.cfg.Burst.enabled() && g.burstOn {
		rate *= g.cfg.Burst.Factor
	}
	mean := simnet.Duration(float64(simnet.Second) / rate)
	g.engine.Schedule(g.rng.Exp(mean), func() {
		g.issue()
		g.scheduleArrival()
	})
}

// Samples returns the recorded response-time samples (a copy).
func (g *Generator) Samples() []RTSample {
	out := make([]RTSample, len(g.samples))
	copy(out, g.samples)
	return out
}

// InFlight returns the number of outstanding transactions.
func (g *Generator) InFlight() int { return g.inFlight }

// Issued returns the total number of transactions issued.
func (g *Generator) Issued() int64 { return g.issued }

// BurstOn reports whether the modulator is currently in a burst.
func (g *Generator) BurstOn() bool { return g.burstOn }

// ResponseTimesSeconds extracts RTs in seconds from samples.
func ResponseTimesSeconds(samples []RTSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.RT().Seconds()
	}
	return out
}
