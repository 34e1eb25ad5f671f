package simnet

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random-number stream. Every stochastic component
// in the simulator (workload generator, service-time noise, burst
// modulator, ...) draws from its own named stream so that adding a new
// consumer does not perturb the draws seen by existing ones.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream from this one. The child is a
// pure function of the parent seed and the name, so call order does not
// matter for reproducibility as long as names are stable.
func (g *RNG) Split(name string) *RNG {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= int64(name[i])
		h *= 1099511628211
	}
	// Mix with a fixed draw position rather than consuming from the parent
	// stream, so splits are order-independent.
	return NewRNG(h ^ g.r.Int63())
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 {
	return g.r.Float64()
}

// Intn returns a uniform value in [0,n). n must be > 0.
func (g *RNG) Intn(n int) int {
	return g.r.Intn(n)
}

// Exp returns an exponentially distributed duration with the given mean.
// A non-positive mean returns zero.
func (g *RNG) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	return Duration(g.r.ExpFloat64() * float64(mean))
}

// LogNormal returns a lognormally distributed multiplier with median 1 and
// the given sigma (log-scale standard deviation). Used for service-time
// noise: real per-class service times vary (e.g. data selectivity, §III-B),
// and a lognormal with small sigma captures that without changing the
// class's characteristic demand.
func (g *RNG) LogNormal(sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(g.r.NormFloat64() * sigma)
}

// Pick returns an index in [0,len(weights)) with probability proportional
// to weights[i]. Zero or negative total weight returns 0.
func (g *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
