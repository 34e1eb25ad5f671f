package ntier

import (
	"fmt"
	"sort"

	"transientbd/internal/simnet"
	"transientbd/internal/workload"
)

// scenarioPreset builds the canonical Config for one battery scenario.
// Each preset is tuned against the calibrated BrowseOnly capacities
// (app tier ≈1340 pages/s, DB tier ≈2530 q/s per host at the default
// query work) so the injected mechanism — and only it — drives the
// transient congestion.
type scenarioPreset struct {
	cause CauseKind
	desc  string
	build func(seed int64, duration, ramp simnet.Duration) Config
}

var scenarioPresets = map[string]scenarioPreset{
	"conn-pool": {
		cause: CausePoolExhaustion,
		desc:  "cluster→DB connection pools capped; demand exceeds pooled capacity",
		build: func(seed int64, duration, ramp simnet.Duration) Config {
			return Config{
				Users:    9500,
				Duration: duration,
				Ramp:     ramp,
				Seed:     seed,
				// Heavier queries move the natural bottleneck to the DB
				// tier so the cap binds before the app CPUs do.
				Mix:       workload.ScaleQueryWork(workload.BrowseOnlyMix(), 1.5),
				DBConnCap: 6,
			}
		},
	},
	"lock-convoy": {
		cause: CauseLockConvoy,
		desc:  "C-JDBC serialized behind a critical section with a periodic long hold",
		build: func(seed int64, duration, ramp simnet.Duration) Config {
			return Config{
				Users:    8000,
				Duration: duration,
				Ramp:     ramp,
				Seed:     seed,
				Convoy:   &ConvoyConfig{Target: "cjdbc"},
			}
		},
	},
	"cache-stampede": {
		cause: CauseCacheStampede,
		desc:  "app-tier result cache invalidated periodically; miss storms hit the DBs",
		build: func(seed int64, duration, ramp simnet.Duration) Config {
			period := duration / 12
			if period < 6*simnet.Second {
				period = 6 * simnet.Second
			}
			if period > 15*simnet.Second {
				period = 15 * simnet.Second
			}
			return Config{
				Users:    10000,
				Duration: duration,
				Ramp:     ramp,
				Seed:     seed,
				Mix:      workload.ScaleQueryWork(workload.BrowseOnlyMix(), 1.6),
				Stampede: &StampedeConfig{Period: period},
			}
		},
	},
	"noisy-neighbor": {
		cause: CauseNoisyNeighbor,
		desc:  "co-located tenant steals every core of mysql-1 for 300 ms every 3 s",
		build: func(seed int64, duration, ramp simnet.Duration) Config {
			return Config{
				Users:      7000,
				Duration:   duration,
				Ramp:       ramp,
				Seed:       seed,
				Antagonist: &AntagonistConfig{Target: "mysql-1"},
			}
		},
	},
	"open-loop": {
		cause: CauseOverload,
		desc:  "open Poisson arrivals with deterministic surges past app-tier capacity",
		build: func(seed int64, duration, ramp simnet.Duration) Config {
			return Config{
				Duration: duration,
				Ramp:     ramp,
				Seed:     seed,
				OpenLoop: &OpenLoopConfig{
					Rate:        800,
					SurgeFactor: 2.0,
					SurgeEvery:  duration / 4,
					SurgeLen:    duration / 10,
				},
				// Open-loop surges push thousands of pages in flight; give
				// the web tier enough threads and backlog that TCP
				// retransmissions do not confound the app-tier signal.
				WebThreads:       6000,
				WebAcceptBacklog: 20000,
			}
		},
	},
	"slow-start": {
		cause: CauseSlowStart,
		desc:  "a third Tomcat joins mid-run and serves 3× slower while warming",
		build: func(seed int64, duration, ramp simnet.Duration) Config {
			return Config{
				Users:     10500,
				Duration:  duration,
				Ramp:      ramp,
				Seed:      seed,
				Autoscale: true,
			}
		},
	},
}

// ScenarioNames lists the battery scenario names in sorted order.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarioPresets))
	for name := range scenarioPresets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ScenarioDescription returns the one-line description of a scenario.
func ScenarioDescription(name string) string {
	return scenarioPresets[name].desc
}

// ScenarioCause returns the ground-truth cause kind a scenario injects,
// or "" for an unknown name.
func ScenarioCause(name string) CauseKind {
	return scenarioPresets[name].cause
}

// ScenarioPreset returns the canonical configuration for a named battery
// scenario. Zero duration and ramp select the defaults (3 m / 20 s).
func ScenarioPreset(name string, seed int64, duration, ramp simnet.Duration) (Config, error) {
	p, ok := scenarioPresets[name]
	if !ok {
		return Config{}, fmt.Errorf("ntier: unknown scenario %q (have %v)", name, ScenarioNames())
	}
	if duration <= 0 {
		duration = 3 * simnet.Minute
	}
	if ramp <= 0 {
		ramp = 20 * simnet.Second
	}
	return p.build(seed, duration, ramp), nil
}
