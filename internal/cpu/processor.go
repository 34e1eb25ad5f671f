package cpu

import (
	"errors"
	"fmt"

	"transientbd/internal/simnet"
)

// Job is a unit of CPU work submitted to a Processor. Work is expressed as
// the service time the job would take on one core at the *nominal* (P0)
// frequency; a lower P-state stretches it proportionally.
type Job struct {
	// remaining nominal-frequency work, in virtual microseconds (float to
	// avoid rounding drift across many speed changes).
	remaining float64
	onDone    func()
	running   bool
	lastSync  simnet.Time
	doneEv    simnet.EventHandle
}

// Config configures a Processor.
type Config struct {
	// Cores is the number of parallel execution slots (VM vCPUs pinned to
	// physical cores in the paper's setup, Fig 1).
	Cores int
	// Governor selects the P-state each control period. Defaults to
	// FixedGovernor{State: 0} (SpeedStep disabled).
	Governor Governor
	// ControlPeriod is how often the governor runs. The paper's BIOS
	// control is slow; 500ms reproduces its sluggishness. Defaults to
	// 500ms. Ignored for FixedGovernor (no ticks are scheduled).
	ControlPeriod simnet.Duration
}

// Processor executes CPU jobs on a fixed number of cores with
// frequency-scaled progress and stop-the-world pause support.
type Processor struct {
	engine *simnet.Engine
	cfg    Config

	current int // P-state index
	paused  bool

	running []*Job
	queue   []*Job

	// Busy-time accounting (for utilization: governor + monitors).
	busyIntegral   float64 // core-microseconds of occupied cores
	lastBusySync   simnet.Time
	windowStart    simnet.Time
	windowIntegral float64

	// P-state residency accounting (core-µs per state), for reports.
	stateResidency []float64
	lastStateSync  simnet.Time

	transitions uint64
	onSpeed     []func(state int)
}

// NewProcessor creates a processor bound to the engine. The governor tick
// is scheduled lazily on Start. A FixedGovernor starts at its own state;
// any other governor starts at the slowest state (a power-saving idle
// start) and climbs as load arrives.
func NewProcessor(engine *simnet.Engine, cfg Config) (*Processor, error) {
	if engine == nil {
		return nil, errors.New("cpu: nil engine")
	}
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("cpu: cores must be positive, got %d", cfg.Cores)
	}
	if cfg.Governor == nil {
		cfg.Governor = FixedGovernor{State: 0}
	}
	if cfg.ControlPeriod <= 0 {
		cfg.ControlPeriod = 500 * simnet.Millisecond
	}
	initial := len(pstates) - 1
	if fixed, ok := cfg.Governor.(FixedGovernor); ok {
		initial = clampState(fixed.State, len(pstates))
	}
	p := &Processor{
		engine:         engine,
		cfg:            cfg,
		current:        initial,
		stateResidency: make([]float64, len(pstates)),
	}
	return p, nil
}

// Start begins governor ticks. Safe to skip for fixed governors.
func (p *Processor) Start() {
	if _, fixed := p.cfg.Governor.(FixedGovernor); fixed {
		return
	}
	p.windowStart = p.engine.Now()
	p.windowIntegral = 0
	p.engine.Schedule(p.cfg.ControlPeriod, p.governorTick)
}

func (p *Processor) governorTick() {
	p.syncBusy()
	now := p.engine.Now()
	window := float64(now - p.windowStart)
	util := 0.0
	if window > 0 {
		util = p.windowIntegral / (window * float64(p.cfg.Cores))
	}
	want := p.cfg.Governor.Decide(util, p.current, len(pstates))
	want = clampState(want, len(pstates))
	if want != p.current {
		p.setState(want)
	}
	p.windowStart = now
	p.windowIntegral = 0
	p.engine.Schedule(p.cfg.ControlPeriod, p.governorTick)
}

// setState changes the P-state, rescheduling all running jobs.
func (p *Processor) setState(state int) {
	p.syncProgress()
	p.syncResidency()
	p.current = state
	p.transitions++
	p.rescheduleAll()
	for _, fn := range p.onSpeed {
		fn(state)
	}
}

// ForceState pins the processor to a state immediately (used by tests and
// by scenario scripts). The governor may move it again on its next tick.
func (p *Processor) ForceState(state int) {
	p.setState(clampState(state, len(pstates)))
}

// OnStateChange registers a callback invoked after every P-state change.
func (p *Processor) OnStateChange(fn func(state int)) {
	p.onSpeed = append(p.onSpeed, fn)
}

// State returns the current P-state index.
func (p *Processor) State() int { return p.current }

// Cores returns the number of cores.
func (p *Processor) Cores() int { return p.cfg.Cores }

// Transitions returns how many P-state changes have occurred.
func (p *Processor) Transitions() uint64 { return p.transitions }

// speed returns the current progress rate: frequency ratio relative to
// P0, or 0 while paused.
func (p *Processor) speed() float64 {
	if p.paused {
		return 0
	}
	return float64(pstates[p.current].MHz) / float64(pstates[0].MHz)
}

// Paused reports whether the processor is in a stop-the-world pause.
func (p *Processor) Paused() bool { return p.paused }

// Pause freezes all job progress (stop-the-world). Cores still count as
// busy for utilization purposes: a JVM in a serial GC spins the CPU doing
// collection work while the application is frozen.
func (p *Processor) Pause() {
	if p.paused {
		return
	}
	p.syncProgress()
	p.syncBusy()
	p.paused = true
	p.rescheduleAll()
}

// Resume ends a stop-the-world pause.
func (p *Processor) Resume() {
	if !p.paused {
		return
	}
	p.syncBusy()
	p.paused = false
	// Jobs made no progress during the pause; lastSync must move to now so
	// the pause span is not charged as progress.
	now := p.engine.Now()
	for _, j := range p.running {
		j.lastSync = now
	}
	p.rescheduleAll()
}

// Submit enqueues nominal-frequency work and calls onDone when it
// completes. It returns the job handle (usable with Cancel).
func (p *Processor) Submit(work simnet.Duration, onDone func()) *Job {
	if work < 0 {
		work = 0
	}
	j := &Job{remaining: float64(work), onDone: onDone}
	if len(p.running) < p.cfg.Cores {
		p.startJob(j)
	} else {
		p.queue = append(p.queue, j)
	}
	return j
}

// QueueLen returns the number of jobs waiting for a core.
func (p *Processor) QueueLen() int { return len(p.queue) }

// RunningLen returns the number of jobs currently occupying cores.
func (p *Processor) RunningLen() int { return len(p.running) }

func (p *Processor) startJob(j *Job) {
	p.syncBusy()
	j.running = true
	j.lastSync = p.engine.Now()
	p.running = append(p.running, j)
	p.scheduleCompletion(j)
}

func (p *Processor) scheduleCompletion(j *Job) {
	if j.doneEv.Valid() {
		p.engine.Cancel(j.doneEv)
	}
	sp := p.speed()
	if sp <= 0 {
		return // frozen; rescheduled on resume
	}
	delay := simnet.Duration(j.remaining / sp)
	if float64(delay)*sp < j.remaining {
		delay++ // round up so remaining reaches zero
	}
	j.doneEv = p.engine.Schedule(delay, func() { p.complete(j) })
}

func (p *Processor) complete(j *Job) {
	p.syncProgress()
	p.syncBusy()
	j.remaining = 0
	j.running = false
	// Remove from running set.
	for i, r := range p.running {
		if r == j {
			p.running = append(p.running[:i], p.running[i+1:]...)
			break
		}
	}
	// Admit next queued job before invoking the callback so FIFO order is
	// independent of what the callback submits.
	if len(p.queue) > 0 {
		next := p.queue[0]
		p.queue = p.queue[1:]
		p.startJob(next)
	}
	if j.onDone != nil {
		j.onDone()
	}
}

// Cancel aborts a job; the onDone callback is never invoked. It reports
// whether the job was still pending.
func (p *Processor) Cancel(j *Job) bool {
	if j == nil {
		return false
	}
	if j.running {
		p.syncProgress()
		p.syncBusy()
		if j.doneEv.Valid() {
			p.engine.Cancel(j.doneEv)
		}
		j.running = false
		for i, r := range p.running {
			if r == j {
				p.running = append(p.running[:i], p.running[i+1:]...)
				break
			}
		}
		if len(p.queue) > 0 {
			next := p.queue[0]
			p.queue = p.queue[1:]
			p.startJob(next)
		}
		return true
	}
	for i, q := range p.queue {
		if q == j {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			return true
		}
	}
	return false
}

// syncProgress charges elapsed progress to all running jobs.
func (p *Processor) syncProgress() {
	now := p.engine.Now()
	sp := p.speed()
	for _, j := range p.running {
		if sp > 0 {
			j.remaining -= float64(now-j.lastSync) * sp
			if j.remaining < 0 {
				j.remaining = 0
			}
		}
		j.lastSync = now
	}
}

func (p *Processor) rescheduleAll() {
	for _, j := range p.running {
		p.scheduleCompletion(j)
	}
}

// syncBusy accumulates busy core-time up to now. During a pause all cores
// count as busy (the CPU is doing GC work).
func (p *Processor) syncBusy() {
	now := p.engine.Now()
	span := float64(now - p.lastBusySync)
	if span > 0 {
		busy := float64(len(p.running))
		if p.paused {
			busy = float64(p.cfg.Cores)
		}
		if busy > float64(p.cfg.Cores) {
			busy = float64(p.cfg.Cores)
		}
		p.busyIntegral += busy * span
		p.windowIntegral += busy * span
	}
	p.lastBusySync = now
	p.syncResidency()
}

func (p *Processor) syncResidency() {
	now := p.engine.Now()
	span := float64(now - p.lastStateSync)
	if span > 0 {
		p.stateResidency[p.current] += span
	}
	p.lastStateSync = now
}

// BusyCoreMicros returns cumulative busy core-microseconds up to the
// current engine time. Monitors difference successive readings to compute
// utilization over their sampling interval.
func (p *Processor) BusyCoreMicros() float64 {
	p.syncBusy()
	return p.busyIntegral
}

// Utilization returns average utilization (0..1) over [from, now] given a
// previous BusyCoreMicros reading taken at from.
func (p *Processor) Utilization(prevBusy float64, from simnet.Time) float64 {
	now := p.engine.Now()
	span := float64(now - from)
	if span <= 0 {
		return 0
	}
	return (p.BusyCoreMicros() - prevBusy) / (span * float64(p.cfg.Cores))
}

// StateResidency returns the fraction of elapsed time spent in each
// P-state since creation.
func (p *Processor) StateResidency() []float64 {
	p.syncResidency()
	var total float64
	for _, r := range p.stateResidency {
		total += r
	}
	out := make([]float64, len(p.stateResidency))
	if total == 0 {
		return out
	}
	for i, r := range p.stateResidency {
		out[i] = r / total
	}
	return out
}
