package cpu

// Energy accounting. SpeedStep exists to save power; any judgment of a
// frequency-control policy needs the other side of the ledger. The model
// is the standard CMOS approximation: dynamic power scales with f·V² and
// voltage scales roughly linearly with frequency in the DVFS range, so
// dynamic power ∝ f³, plus a frequency-independent static floor.
//
//	P(state) = staticWatts + dynamicWatts × (f/f0)³        (per busy core)
//	P_idle(state) = staticWatts                            (per idle core)
//
// Energy integrates P over residency, using the processor's busy-core
// accounting.

// Per-core power draw: staticWatts is the frequency-independent draw per
// core (leakage, uncore share); dynamicWatts is the additional draw of a
// fully busy core at the highest P-state.
const (
	staticWatts  = 4
	dynamicWatts = 12
)

// EnergyJoules estimates the processor's total energy over its lifetime
// so far: static draw on all cores for the whole elapsed time plus
// dynamic draw on busy cores weighted by the per-state residency.
//
// The approximation charges busy time at the residency-weighted mean
// frequency; exact joint (busy × state) accounting would require sampling
// both simultaneously, which the processor does not track.
func (p *Processor) EnergyJoules() float64 {
	residency := p.StateResidency()
	elapsed := p.engine.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	// Residency-weighted mean of (f/f0)³.
	var f3 float64
	for i, frac := range residency {
		ratio := float64(pstates[i].MHz) / float64(pstates[0].MHz)
		f3 += frac * ratio * ratio * ratio
	}
	busyCoreSeconds := p.BusyCoreMicros() / 1e6
	static := staticWatts * float64(p.cfg.Cores) * elapsed
	dynamic := dynamicWatts * f3 * busyCoreSeconds
	return static + dynamic
}
