// Package cpu models a multi-core processor with dynamic frequency scaling
// (Intel SpeedStep, §IV-C of the paper). Servers submit units of CPU work;
// the processor executes up to NumCores jobs in parallel, scaled by the
// current P-state frequency. A pluggable governor moves between P-states
// on a control period; the paper's Dell BIOS-level control algorithm is
// modeled by StepGovernor with a long control period, which cannot follow
// bursty demand and therefore creates transient bottlenecks.
//
// The processor also supports stop-the-world pauses (used by the JVM GC
// model): while paused, running jobs make no progress but still occupy
// cores, exactly like a JVM freeze under a serial collector.
package cpu

// PState is one performance state of the processor: a name and a core
// clock frequency in MHz.
type PState struct {
	Name string
	MHz  int
}

// TableII returns the paper's Table II: the subset of Xeon P-states
// supported by the authors' machines. P0 is the highest-frequency state;
// the list is ordered from fastest to slowest.
func TableII() []PState {
	return []PState{
		{Name: "P0", MHz: 2261},
		{Name: "P1", MHz: 2128},
		{Name: "P4", MHz: 1729},
		{Name: "P5", MHz: 1596},
		{Name: "P8", MHz: 1197},
	}
}

// pstates is the table every Processor runs on.
var pstates = TableII()

// Governor decides which P-state the processor should run in. Decide is
// called once per control period with the utilization (0..1) observed over
// the period that just ended and the current P-state index; it returns the
// desired index. Implementations must return an index in [0, numStates).
type Governor interface {
	Decide(utilization float64, current, numStates int) int
}

// FixedGovernor pins the processor to one P-state. A FixedGovernor{State:
// 0} models "SpeedStep disabled in BIOS" (§IV-D): the CPU always runs at
// P0.
type FixedGovernor struct {
	State int
}

var _ Governor = FixedGovernor{}

// Decide always returns the pinned state (clamped to the valid range).
func (g FixedGovernor) Decide(_ float64, _, numStates int) int {
	return clampState(g.State, numStates)
}

// StepGovernor moves at most one P-state per control period: up (toward
// P0) when utilization exceeds UpThreshold, down (toward the slowest
// state) when it falls below DownThreshold. Combined with a long control
// period this reproduces the sluggish BIOS-level SpeedStep control the
// paper blames for the MySQL transient bottlenecks: the clock speed lags
// the bursty real-time workload (§IV-C).
type StepGovernor struct {
	// UpThreshold is the utilization above which the governor raises the
	// clock by one state. Typical: 0.8.
	UpThreshold float64
	// DownThreshold is the utilization below which the governor lowers the
	// clock by one state. Typical: 0.4.
	DownThreshold float64
}

var _ Governor = StepGovernor{}

// Decide implements Governor.
func (g StepGovernor) Decide(utilization float64, current, numStates int) int {
	switch {
	case utilization > g.UpThreshold:
		return clampState(current-1, numStates) // index 0 is fastest
	case utilization < g.DownThreshold:
		return clampState(current+1, numStates)
	default:
		return clampState(current, numStates)
	}
}

// OndemandGovernor jumps directly to the slowest P-state that still keeps
// predicted utilization at or below Target — the behaviour of a modern
// OS-level "ondemand"/"schedutil" policy. Unlike StepGovernor it can move
// several states at once, so it tracks bursty demand even with a long
// control period. It exists as the counterfactual to the paper's
// sluggish BIOS algorithm: the transient bottlenecks of §IV-C come from
// the *control algorithm*, not from frequency scaling as such.
type OndemandGovernor struct {
	// Target is the desired utilization ceiling (0 < Target ≤ 1).
	// Typical: 0.8.
	Target float64
}

var _ Governor = OndemandGovernor{}

// Decide implements Governor.
func (g OndemandGovernor) Decide(utilization float64, current, numStates int) int {
	if numStates != len(pstates) || g.Target <= 0 {
		return clampState(current, numStates)
	}
	// A pegged CPU hides its true demand behind the queue; jump straight
	// to full speed (the classic "ondemand" rule).
	if utilization >= 0.98 {
		return 0
	}
	// Demand in P0-equivalent core-fraction: util × (current freq / P0).
	demand := utilization * float64(pstates[clampState(current, numStates)].MHz) / float64(pstates[0].MHz)
	// Choose the slowest state that keeps predicted utilization ≤ Target.
	for s := numStates - 1; s >= 0; s-- {
		predicted := demand * float64(pstates[0].MHz) / float64(pstates[s].MHz)
		if predicted <= g.Target {
			return s
		}
	}
	return 0
}

func clampState(s, numStates int) int {
	if s < 0 {
		return 0
	}
	if s >= numStates {
		return numStates - 1
	}
	return s
}
