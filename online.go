package transientbd

import (
	"fmt"
	"sort"
	"time"

	"transientbd/internal/core"
	"transientbd/internal/simnet"
)

// OnlineAlert reports one closed monitoring interval at one server from
// the streaming detector.
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

// OnlineConfig tunes the streaming detector. The zero value uses the
// paper's defaults (50 ms intervals) with a 2-minute sliding window.
type OnlineConfig struct {
	// Interval is the monitoring interval (default 50 ms).
	Interval time.Duration
	// Window is the sliding window over which N* is estimated (default
	// 2 minutes).
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
// analyzer options — the one translation both OnlineDetector and Stream
// build their per-server analyzers from.
func (cfg OnlineConfig) coreOptions() core.OnlineOptions {
	interval := cfg.Interval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	window := cfg.Window
	if window <= 0 {
		window = 2 * time.Minute
	}
	reest := cfg.Reestimate
	if reest <= 0 {
		reest = 20 * time.Second
	}
	return core.OnlineOptions{
		Options: core.Options{
			Interval:      simnet.FromStdDuration(interval),
			ServiceTimes:  coreServiceTimes(cfg.ServiceTimes),
			RawThroughput: cfg.RawThroughput,
		},
		WindowIntervals: int(window / interval),
		ReestimateEvery: int(reest / interval),
	}
}

// OnlineDetector ingests records as they complete and emits per-interval
// classifications with bounded memory — the deployment mode of the
// method: attach it to a live passive-tracing feed instead of analyzing
// batches.
//
// OnlineDetector is single-writer: Observe and Advance mutate per-server
// sliding-window state with no internal locking, so calls must be
// serialized (one feeding goroutine, or an external mutex). To scale
// ingestion across cores, shard by server — one OnlineDetector per shard
// — mirroring how Analyze fans out the per-server batch analyses.
type OnlineDetector struct {
	cfg     OnlineConfig
	servers map[string]*core.Online
}

// NewOnlineDetector creates a streaming detector. Records' timestamps
// must share one epoch; interval grids start at zero.
func NewOnlineDetector(cfg OnlineConfig) *OnlineDetector {
	return &OnlineDetector{cfg: cfg, servers: make(map[string]*core.Online)}
}

func (d *OnlineDetector) onlineFor(server string) (*core.Online, error) {
	if o, ok := d.servers[server]; ok {
		return o, nil
	}
	o, err := core.NewOnline(0, d.cfg.coreOptions())
	if err != nil {
		return nil, fmt.Errorf("transientbd: online detector: %w", err)
	}
	d.servers[server] = o
	return o, nil
}

// Observe ingests one completed record.
func (d *OnlineDetector) Observe(r Record) error {
	if r.Server == "" {
		return fmt.Errorf("transientbd: record has no server")
	}
	o, err := d.onlineFor(r.Server)
	if err != nil {
		return err
	}
	o.Observe(recordToVisit(&r))
	return nil
}

// Advance closes all intervals ending at or before now (per server) and
// returns their alerts, congested first within equal times. Call it
// periodically with the tracing clock; lag it slightly behind the newest
// record to let stragglers land.
func (d *OnlineDetector) Advance(now time.Duration) []OnlineAlert {
	var out []OnlineAlert
	names := make([]string, 0, len(d.servers))
	for name := range d.servers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, a := range d.servers[name].Advance(simnet.FromStdDuration(now)) {
			out = append(out, OnlineAlert{
				Server:     name,
				Time:       simnet.Std(simnet.Duration(a.IntervalStart)),
				Load:       a.Load,
				Throughput: a.TP,
				Congested:  a.State == core.StateCongested,
				Freeze:     a.POI,
			})
		}
	}
	return out
}

// NStar returns a server's current congestion-point estimate, if one has
// stabilized yet.
func (d *OnlineDetector) NStar(server string) (float64, bool) {
	o, ok := d.servers[server]
	if !ok {
		return 0, false
	}
	res, ok := o.NStar()
	return res.NStar, ok
}
