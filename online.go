package transientbd

import (
	"fmt"
	"time"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
)

// OnlineAlert reports one closed monitoring interval at one server, as
// delivered on Stream.Alerts.
type OnlineAlert struct {
	// Server is the reporting server.
	Server string
	// Time is the interval's start (offset from the detector's epoch).
	Time time.Duration
	// Load and Throughput are the interval's measurements.
	Load, Throughput float64
	// Congested marks load beyond the server's current N*; Freeze marks a
	// congested interval with near-zero throughput (a POI).
	Congested, Freeze bool
}

// OnlineConfig carries a Stream's detection knobs. The zero value uses
// the paper's defaults (50 ms intervals) with a 2-minute sliding window.
type OnlineConfig struct {
	// Interval is the monitoring interval (default 50 ms): a positive
	// whole number of microseconds, the trace clock's tick.
	Interval time.Duration
	// Window is the sliding window over which N* is estimated (default
	// 2 minutes); it must cover at least 20 intervals.
	Window time.Duration
	// Reestimate is how often N* is refreshed (default 20 s).
	Reestimate time.Duration
	// ServiceTimes supplies per-class service times from a separate
	// low-load calibration, the same role as Config.ServiceTimes; nil
	// estimates them from the stream itself. A calibrated table is what
	// makes a streaming run's verdicts reproducible against a batch pass
	// fed the same table.
	ServiceTimes map[string]time.Duration
	// RawThroughput disables work-unit normalization (single-class
	// workloads, or ablation); ServiceTimes is ignored when set.
	RawThroughput bool
}

// coreOptions resolves the config's defaults into the internal streaming
// analyzer options NewStream builds its per-server analyzers from. The
// trace clock ticks in microseconds and the conversion truncates, so each
// duration is converted first and validated after: the interval grid and
// the window's interval count always come from the same interval.
func (cfg OnlineConfig) coreOptions() (core.OnlineOptions, error) {
	interval, err := coreInterval(cfg.Interval)
	if err != nil {
		return core.OnlineOptions{}, err
	}
	window := cfg.Window
	if window <= 0 {
		window = simnet.Std(core.DefaultWindow)
	}
	n := simnet.FromStdDuration(window) / interval
	if err := core.CheckIntervals(int64(n), core.MinWindowIntervals); err != nil {
		return core.OnlineOptions{}, fmt.Errorf("transientbd: Window %v at Interval %v: %w", window, simnet.Std(interval), err)
	}
	return core.OnlineOptions{
		Options: core.Options{
			Interval:      interval,
			ServiceTimes:  coreServiceTimes(cfg.ServiceTimes),
			RawThroughput: cfg.RawThroughput,
		},
		WindowIntervals: int(n),
		// Zero leaves the cadence to core's trace-time default.
		ReestimateEvery: int(simnet.FromStdDuration(cfg.Reestimate) / interval),
	}, nil
}
