package cpu

// Energy accounting. SpeedStep exists to save power; any judgment of a
// frequency-control policy needs the other side of the ledger. The model
// is the standard CMOS approximation: dynamic power scales with f·V² and
// voltage scales roughly linearly with frequency in the DVFS range, so
// dynamic power ∝ f³, plus a frequency-independent static floor.
//
//	P(state) = StaticWatts + DynamicWatts × (f/f0)³        (per busy core)
//	P_idle(state) = StaticWatts                            (per idle core)
//
// Energy integrates P over residency, using the processor's busy-core
// accounting.

// PowerModel parameterizes per-core power draw.
type PowerModel struct {
	// StaticWatts is the frequency-independent draw per core (leakage,
	// uncore share). Default 4 W.
	StaticWatts float64
	// DynamicWatts is the additional draw of a fully busy core at the
	// highest P-state. Default 12 W.
	DynamicWatts float64
}

func (m PowerModel) applyDefaults() PowerModel {
	if m.StaticWatts <= 0 {
		m.StaticWatts = 4
	}
	if m.DynamicWatts <= 0 {
		m.DynamicWatts = 12
	}
	return m
}

// EnergyJoules estimates the processor's total energy over its lifetime
// so far: static draw on all cores for the whole elapsed time plus
// dynamic draw on busy cores weighted by the per-state residency.
//
// The approximation charges busy time at the residency-weighted mean
// frequency; exact joint (busy × state) accounting would require sampling
// both simultaneously, which the processor does not track.
func (p *Processor) EnergyJoules(m PowerModel) float64 {
	m = m.applyDefaults()
	residency := p.StateResidency()
	elapsed := p.engine.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	// Residency-weighted mean of (f/f0)³.
	var f3 float64
	for i, frac := range residency {
		ratio := float64(p.cfg.PStates[i].MHz) / float64(p.cfg.PStates[0].MHz)
		f3 += frac * ratio * ratio * ratio
	}
	busyCoreSeconds := p.BusyCoreMicros() / 1e6
	static := m.StaticWatts * float64(p.cfg.Cores) * elapsed
	dynamic := m.DynamicWatts * f3 * busyCoreSeconds
	return static + dynamic
}
