// Package ntier assembles the full system under test: the paper's
// 1L/2S/1L/2S RUBBoS deployment (Fig 1) as a discrete-event simulation.
// One web server (Apache), two application servers (Tomcat), one
// clustering middleware (C-JDBC) and two database servers (MySQL), each a
// server.Server with its own multi-core cpu.Processor, driven by a
// closed-loop workload.Generator, with every inter-tier message captured
// by a trace.Collector.
//
// The two causal mechanisms of the paper's case studies are switchable:
//
//   - AppCollector selects the Tomcat JVM collector (JDK 1.5 serial vs
//     JDK 1.6 concurrent, §IV-A/B).
//   - DBSpeedStep enables the sluggish SpeedStep governor on the MySQL
//     hosts (§IV-C/D).
package ntier

import (
	"fmt"

	"transientbd/internal/cpu"
	"transientbd/internal/jvm"
	"transientbd/internal/simnet"
	"transientbd/internal/workload"
)

// Topology is the #W/#A/#C/#D server-count notation from §II-A.
type Topology struct {
	Web, App, Cluster, DB int
}

// Default1L2S1L2S returns the paper's sample topology.
func Default1L2S1L2S() Topology {
	return Topology{Web: 1, App: 2, Cluster: 1, DB: 2}
}

// String renders the paper's four-digit notation, e.g. "1L/2S/1L/2S".
func (t Topology) String() string {
	return fmt.Sprintf("%dL/%dS/%dL/%dS", t.Web, t.App, t.Cluster, t.DB)
}

// Config configures a System build.
type Config struct {
	// Users is the closed-loop population (the paper's workload number).
	// Required.
	Users int
	// Duration is the measured run length. Defaults to 3 minutes, the
	// paper's experiment length.
	Duration simnet.Duration
	// Ramp is the warm-up excluded from measurement. Defaults to 20 s.
	Ramp simnet.Duration
	// Seed makes the whole run reproducible.
	Seed int64

	// Topology defaults to 1L/2S/1L/2S.
	Topology Topology

	// DBSpeedStep enables the SpeedStep step-governor on the MySQL hosts;
	// when false the DB CPUs are pinned to P0 ("disabled in BIOS").
	DBSpeedStep bool
	// GovernorPeriod is the SpeedStep control period (BIOS sluggishness).
	// Defaults to 500 ms.
	GovernorPeriod simnet.Duration
	// DBGovernor, when non-nil, replaces the governor DBSpeedStep would
	// install (e.g. cpu.OndemandGovernor for the counterfactual "a
	// responsive algorithm fixes it" ablation).
	DBGovernor cpu.Governor

	// Antagonist, when non-nil, periodically steals CPU on one server —
	// a noisy-neighbor VM sharing the host, a third cause of transient
	// bottlenecks beyond GC and SpeedStep in the paper's consolidated-
	// cloud setting.
	Antagonist *AntagonistConfig

	// DBConnCap, when positive, bounds every cluster→DB connection pool
	// at that many connections per DB host (scenario: connection-pool
	// exhaustion). Queries beyond the cap queue inside the cluster tier
	// waiting for a free connection.
	DBConnCap int

	// Convoy, when non-nil, serializes one server behind a critical
	// section with a periodic long hold (scenario: lock convoy).
	Convoy *ConvoyConfig

	// Stampede, when non-nil, puts a result cache in front of the app
	// tier's queries and periodically invalidates it (scenario: cache
	// stampede).
	Stampede *StampedeConfig

	// OpenLoop, when non-nil, replaces the closed-loop population with a
	// Poisson arrival process that does not slow down when the system
	// backs up (scenario: open-loop overload). Users is ignored.
	OpenLoop *OpenLoopConfig

	// Autoscale adds a spare app server that joins the rotation mid-run
	// and serves slowly while it warms up (scenario: post-autoscale
	// slow-start; see spareWarmup).
	Autoscale bool

	// AppCollector selects the Tomcat collector; zero disables GC
	// entirely (no heap).
	AppCollector jvm.CollectorKind
	// AppHeapBytes is the Tomcat heap size. Defaults to 384 MB.
	AppHeapBytes int64

	// Workload shape.
	Mix       []workload.Interaction
	ThinkMean simnet.Duration
	Burst     workload.BurstConfig

	// WebThreads is the web tier's thread pool. Defaults to 150; the
	// other tiers' pools are fixed (appThreads, clusterThreads,
	// dbThreads).
	WebThreads int
	// WebAcceptBacklog bounds the web tier accept queue; overflowing it
	// costs a TCP retransmission (footnote 1 of the paper). Defaults to
	// 100.
	WebAcceptBacklog int
}

// The fixed testbed shape. Every VM is pinned to coresPerVM vCPUs,
// matching Fig 1's CPU0/CPU1 pinning; the app, cluster and DB tiers run
// thread pools of 200, 400 and 300. noiseSigma is the lognormal
// service-time noise (σ of log).
const (
	coresPerVM     = 2
	appThreads     = 200
	clusterThreads = 400
	dbThreads      = 300
	noiseSigma     = 0.08
)

func (c *Config) applyDefaults() error {
	if c.Users <= 0 && c.OpenLoop == nil {
		return fmt.Errorf("ntier: users must be positive, got %d", c.Users)
	}
	if c.Duration <= 0 {
		c.Duration = 3 * simnet.Minute
	}
	if c.Ramp <= 0 {
		c.Ramp = 20 * simnet.Second
	}
	if c.Topology == (Topology{}) {
		c.Topology = Default1L2S1L2S()
	}
	if c.Topology.Web <= 0 || c.Topology.App <= 0 || c.Topology.Cluster <= 0 || c.Topology.DB <= 0 {
		return fmt.Errorf("ntier: topology %v has empty tiers", c.Topology)
	}
	if c.GovernorPeriod <= 0 {
		c.GovernorPeriod = 500 * simnet.Millisecond
	}
	if c.AppHeapBytes <= 0 {
		c.AppHeapBytes = 384 * jvm.MB
	}
	if len(c.Mix) == 0 {
		c.Mix = workload.BrowseOnlyMix()
	}
	if c.ThinkMean <= 0 {
		c.ThinkMean = 8400 * simnet.Millisecond
	}
	if c.WebThreads <= 0 {
		c.WebThreads = 150
	}
	if c.WebAcceptBacklog <= 0 {
		c.WebAcceptBacklog = 100
	}
	if c.Antagonist != nil {
		if err := c.Antagonist.applyDefaults(); err != nil {
			return err
		}
		if err := c.validateServerName("antagonist target", c.Antagonist.Target); err != nil {
			return err
		}
	}
	if c.DBConnCap < 0 {
		return fmt.Errorf("ntier: negative DB connection cap %d", c.DBConnCap)
	}
	if c.Convoy != nil {
		if c.Convoy.Target == "" {
			return fmt.Errorf("ntier: convoy needs a target server")
		}
		if err := c.validateServerName("convoy target", c.Convoy.Target); err != nil {
			return err
		}
	}
	if c.Stampede != nil && c.Stampede.Period <= 0 {
		c.Stampede.Period = 15 * simnet.Second
	}
	if c.OpenLoop != nil {
		if err := c.OpenLoop.applyDefaults(); err != nil {
			return err
		}
	}
	return nil
}

// serverNames enumerates every server name the topology will produce,
// including the autoscale spare when configured.
func (c *Config) serverNames() []string {
	appCount := c.Topology.App
	if c.Autoscale {
		appCount++
	}
	var names []string
	for i := 0; i < c.Topology.Web; i++ {
		names = append(names, tierName("apache", i, c.Topology.Web))
	}
	for i := 0; i < appCount; i++ {
		names = append(names, tierName("tomcat", i, appCount))
	}
	for i := 0; i < c.Topology.Cluster; i++ {
		names = append(names, tierName("cjdbc", i, c.Topology.Cluster))
	}
	for i := 0; i < c.Topology.DB; i++ {
		names = append(names, tierName("mysql", i, c.Topology.DB))
	}
	return names
}

// validateServerName rejects configuration that names a server the
// topology does not contain, listing the valid names in the error.
func (c *Config) validateServerName(what, name string) error {
	names := c.serverNames()
	for _, n := range names {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("ntier: %s %q is not in topology %v (servers: %v)", what, name, c.Topology, names)
}

// AntagonistConfig describes a periodic CPU hog co-located with one
// server.
type AntagonistConfig struct {
	// Target is the victim server's name (e.g. "mysql-1"). Required.
	Target string
	// Period is the interval between hog bursts. Defaults to 3 s.
	Period simnet.Duration
	// BurstLen is how long each burst occupies every core. Defaults to
	// 300 ms.
	BurstLen simnet.Duration
}

func (a *AntagonistConfig) applyDefaults() error {
	if a.Target == "" {
		return fmt.Errorf("ntier: antagonist needs a target server")
	}
	if a.Period <= 0 {
		a.Period = 3 * simnet.Second
	}
	if a.BurstLen <= 0 {
		a.BurstLen = 300 * simnet.Millisecond
	}
	if a.BurstLen >= a.Period {
		return fmt.Errorf("ntier: antagonist burst %v must be shorter than period %v",
			simnet.Std(a.BurstLen), simnet.Std(a.Period))
	}
	return nil
}

// ConvoyConfig serializes one server behind a FIFO critical section
// (think a coarse table lock or a synchronized log appender). Every
// request through the target acquires the lock for convoyCritWork; a
// janitor grabs it for convoyHoldLen every convoyPeriod, parking the
// whole tier behind it.
type ConvoyConfig struct {
	// Target is the serialized server's name (e.g. "cjdbc"). Required.
	Target string
}

// The convoy's lock timings.
const (
	convoyCritWork = 150 * simnet.Microsecond
	convoyPeriod   = 4 * simnet.Second
	convoyHoldLen  = 400 * simnet.Millisecond
)

// StampedeConfig puts a result cache in front of the app tier's queries.
// A hit costs cacheHitWork on the app CPU and skips the downstream call;
// a miss goes downstream and refills one entry. Invalidation every
// Period empties the cache and sends the full query rate at the DB tier
// until it refills.
type StampedeConfig struct {
	// Period is the invalidation interval. Defaults to 15 s.
	Period simnet.Duration
}

// The stampede cache: cacheHitRate is the warm-cache hit probability,
// cacheEntries the number of entries when warm (the refill takes that
// many misses), and cacheHitWork the app-tier CPU cost of a hit.
const (
	cacheHitRate = 0.75
	cacheEntries = 8000
	cacheHitWork = 60 * simnet.Microsecond
)

// OpenLoopConfig replaces the closed-loop population with a Poisson
// arrival process: arrivals do not wait for previous pages to finish,
// so when demand exceeds capacity the queues grow without the closed
// loop's self-limiting feedback. Optional deterministic surges multiply
// the rate.
type OpenLoopConfig struct {
	// Rate is the baseline arrival rate in pages per second. Required.
	Rate float64
	// SurgeFactor multiplies Rate during surges. Values <= 1 disable
	// surges.
	SurgeFactor float64
	// SurgeEvery is the surge period; a surge starts at every multiple.
	SurgeEvery simnet.Duration
	// SurgeLen is how long each surge lasts.
	SurgeLen simnet.Duration
}

func (c *OpenLoopConfig) applyDefaults() error {
	if c.Rate <= 0 {
		return fmt.Errorf("ntier: open-loop arrival rate must be positive, got %v", c.Rate)
	}
	if c.SurgeFactor > 1 {
		if c.SurgeEvery <= 0 || c.SurgeLen <= 0 {
			return fmt.Errorf("ntier: open-loop surge needs SurgeEvery and SurgeLen")
		}
		if c.SurgeLen >= c.SurgeEvery {
			return fmt.Errorf("ntier: open-loop surge length %v must be shorter than its period %v",
				simnet.Std(c.SurgeLen), simnet.Std(c.SurgeEvery))
		}
	}
	return nil
}

// spareWarmup is the autoscale spare's warm-up: it joins the round-robin
// rotation a third of the way into the measured run and serves
// spareSlowFactor× slower at first, decaying linearly to full speed a
// sixth of the run later — a cold JIT/cache/pool on a fresh instance.
func (c *Config) spareWarmup() TruthWindow {
	at := c.Ramp + c.Duration/3
	return TruthWindow{Start: at, End: at + c.Duration/6}
}

// spareSlowFactor is the autoscale spare's initial service-time
// multiplier.
const spareSlowFactor = 3

// DefaultBurst returns the burst modulation used by the paper-shaped
// experiments: correlated surges that multiply instantaneous demand by
// 2.5× for about a second, every several seconds.
func DefaultBurst() workload.BurstConfig {
	return workload.BurstConfig{
		Factor:  2.5,
		OnMean:  1200 * simnet.Millisecond,
		OffMean: 6 * simnet.Second,
	}
}

// newDBGovernor builds the governor for a DB host processor.
func (c *Config) newDBGovernor() cpu.Governor {
	if c.DBGovernor != nil {
		return c.DBGovernor
	}
	if c.DBSpeedStep {
		// An aggressive power-saving policy that keeps the clock barely
		// sufficient for the average demand, so any burst lands on an
		// under-clocked CPU (the Dell BIOS behaviour §IV-C blames).
		return cpu.StepGovernor{UpThreshold: 0.95, DownThreshold: 0.88}
	}
	return cpu.FixedGovernor{State: 0}
}
