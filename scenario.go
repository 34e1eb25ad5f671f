package transientbd

import (
	"fmt"
	"time"

	"transientbd/internal/jvm"
	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
	"transientbd/internal/workload"
)

// Collector selects the simulated app-tier JVM garbage collector.
type Collector int

// Collector choices for Scenario.AppCollector.
const (
	// CollectorNone disables the app-tier heap entirely.
	CollectorNone Collector = iota
	// CollectorSerial is a synchronous stop-the-world collector ("JDK
	// 1.5" in the paper's case study).
	CollectorSerial
	// CollectorConcurrent is a mostly-concurrent collector with brief
	// pauses ("JDK 1.6").
	CollectorConcurrent
)

// Scenario configures a run of the simulated four-tier RUBBoS-style
// testbed (1 Apache / 2 Tomcat / 1 C-JDBC / 2 MySQL). The zero value is
// invalid; Users is required.
type Scenario struct {
	// Users is the closed-loop client population (the paper's "WL" axis).
	Users int
	// Duration is the measured run length (default 3 minutes, the
	// paper's experiment length).
	Duration time.Duration
	// Ramp is the warm-up excluded from measurement (default 20 s).
	Ramp time.Duration
	// Seed makes runs reproducible.
	Seed int64
	// AppCollector selects the Tomcat garbage collector (default
	// CollectorConcurrent).
	AppCollector Collector
	// AppHeapMB is the Tomcat heap size in MiB (default 384).
	AppHeapMB int
	// DBSpeedStep enables the sluggish SpeedStep frequency governor on
	// the MySQL hosts; false pins them at full clock.
	DBSpeedStep bool
	// Bursty enables correlated client-side load surges (default burst
	// shape when true).
	Bursty bool
	// ThinkTime overrides the mean client think time (default 8.4 s).
	// Longer think times shift the saturation knee to higher user counts.
	ThinkTime time.Duration

	// Preset selects one of the ground-truth battery scenarios (see
	// ScenarioPresets): the canonical configuration for a single injected
	// transient-bottleneck mechanism. Other Scenario fields still apply
	// on top (a zero Users keeps the preset's population). Empty runs the
	// plain testbed with no injected mechanism.
	Preset string
	// NoisyNeighborTarget co-locates a periodic full-machine CPU hog
	// with the named server (e.g. "mysql-1"). The name must exist in the
	// topology or RunScenario fails with an error listing the servers.
	NoisyNeighborTarget string
	// LockConvoyTarget serializes the named server (e.g. "cjdbc") behind
	// a critical section with a periodic long hold. Same topology
	// validation as NoisyNeighborTarget.
	LockConvoyTarget string
}

// ScenarioPresets lists the ground-truth battery preset names usable in
// Scenario.Preset, sorted.
func ScenarioPresets() []string { return ntier.ScenarioNames() }

// ScenarioPresetCause returns the ground-truth cause kind a preset
// injects (the same vocabulary as CauseVerdict.Kind), or "" for an
// unknown name.
func ScenarioPresetCause(preset string) string {
	return string(ntier.ScenarioCause(preset))
}

// TruthWindow is one [Start, End) span during which an injected
// mechanism was actively degrading service.
type TruthWindow struct {
	Start, End time.Duration
}

// GroundTruthRecord is one machine-readable injection record from a
// scenario run: which mechanism was active, which servers it targeted,
// and when. Cause uses the same vocabulary as CauseVerdict.Kind, so
// verdicts can be scored against the truth directly.
type GroundTruthRecord struct {
	Cause   string
	Servers []string
	Windows []TruthWindow
}

// ScenarioResult is the harvest of one simulated run.
type ScenarioResult struct {
	// Records are the per-server visit records, ready for Analyze.
	Records []Record
	// ResponseTimes are end-to-end client response times, in seconds,
	// for transactions issued in the measured window.
	ResponseTimes []float64
	// PagesPerSecond is the measured page throughput.
	PagesPerSecond float64
	// Utilization is each server's mean CPU utilization over the window.
	Utilization map[string]float64
	// WindowStart and WindowEnd bound the measured window.
	WindowStart, WindowEnd time.Duration
	// Servers lists server names, web tier first.
	Servers []string
	// GroundTruth lists one injection record per configured mechanism
	// (empty when the scenario injected none) — the labels the
	// attribution engine's verdicts are validated against.
	GroundTruth []GroundTruthRecord
}

// RunScenario builds and runs the simulated testbed and returns its
// trace in public form. The same engine validates the detection method in
// the repository's experiment suite.
func RunScenario(sc Scenario) (*ScenarioResult, error) {
	var cfg ntier.Config
	if sc.Preset != "" {
		var err error
		cfg, err = ntier.ScenarioPreset(sc.Preset, sc.Seed,
			simnet.FromStdDuration(sc.Duration), simnet.FromStdDuration(sc.Ramp))
		if err != nil {
			return nil, fmt.Errorf("transientbd: %w", err)
		}
		if sc.Users > 0 {
			cfg.Users = sc.Users
		}
		if sc.DBSpeedStep {
			cfg.DBSpeedStep = true
		}
	} else {
		cfg = ntier.Config{
			Users:       sc.Users,
			Duration:    simnet.FromStdDuration(sc.Duration),
			Ramp:        simnet.FromStdDuration(sc.Ramp),
			Seed:        sc.Seed,
			DBSpeedStep: sc.DBSpeedStep,
		}
	}
	if sc.NoisyNeighborTarget != "" {
		cfg.Antagonist = &ntier.AntagonistConfig{Target: sc.NoisyNeighborTarget}
	}
	if sc.LockConvoyTarget != "" {
		cfg.Convoy = &ntier.ConvoyConfig{Target: sc.LockConvoyTarget}
	}
	switch sc.AppCollector {
	case CollectorNone:
	case CollectorSerial:
		cfg.AppCollector = jvm.CollectorSerial
	case CollectorConcurrent:
		cfg.AppCollector = jvm.CollectorConcurrent
	default:
		return nil, fmt.Errorf("transientbd: unknown collector %d", int(sc.AppCollector))
	}
	if sc.AppHeapMB > 0 {
		cfg.AppHeapBytes = int64(sc.AppHeapMB) * jvm.MB
	}
	if sc.Bursty {
		cfg.Burst = ntier.DefaultBurst()
	}
	if sc.ThinkTime > 0 {
		cfg.ThinkMean = simnet.FromStdDuration(sc.ThinkTime)
	}
	sys, err := ntier.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("transientbd: build scenario: %w", err)
	}
	res, err := sys.Run()
	if err != nil {
		return nil, fmt.Errorf("transientbd: run scenario: %w", err)
	}

	out := &ScenarioResult{
		PagesPerSecond: res.PagesPerSecond(),
		Utilization:    res.Utilization,
		WindowStart:    simnet.Std(simnet.Duration(res.WindowStart)),
		WindowEnd:      simnet.Std(simnet.Duration(res.WindowEnd)),
		ResponseTimes:  workload.ResponseTimesSeconds(res.Samples),
	}
	for _, srv := range sys.AllServers() {
		out.Servers = append(out.Servers, srv.Name())
	}
	for _, g := range res.GroundTruth {
		rec := GroundTruthRecord{
			Cause:   string(g.Cause),
			Servers: append([]string(nil), g.Servers...),
		}
		for _, tw := range g.Windows {
			rec.Windows = append(rec.Windows, TruthWindow{
				Start: simnet.Std(simnet.Duration(tw.Start)),
				End:   simnet.Std(simnet.Duration(tw.End)),
			})
		}
		out.GroundTruth = append(out.GroundTruth, rec)
	}
	out.Records = make([]Record, 0, len(res.Visits))
	for _, v := range res.Visits {
		out.Records = append(out.Records, Record{
			Server:         v.Server,
			Class:          v.Class,
			Arrive:         simnet.Std(simnet.Duration(v.Arrive)),
			Depart:         simnet.Std(simnet.Duration(v.Depart)),
			DownstreamWait: simnet.Std(v.Downstream),
			TxnID:          v.TxnID,
			HopID:          v.HopID,
		})
	}
	return out, nil
}

// AnalyzeScenario is a convenience that runs a scenario and immediately
// analyzes its trace over the measured window with default options.
func AnalyzeScenario(sc Scenario) (*ScenarioResult, *Report, error) {
	res, err := RunScenario(sc)
	if err != nil {
		return nil, nil, err
	}
	report, err := Analyze(res.Records, Config{
		WindowStart: res.WindowStart,
		WindowEnd:   res.WindowEnd,
	})
	if err != nil {
		return nil, nil, err
	}
	return res, report, nil
}
