package experiments

import (
	"fmt"
	"strings"

	"transientbd/internal/core"
	"transientbd/internal/jvm"
	"transientbd/internal/metrics"
	"transientbd/internal/ntier"
	"transientbd/internal/simnet"
	"transientbd/internal/stats"
	"transientbd/internal/trace"
	"transientbd/internal/workload"
)

// RunOpts scales experiments between the paper's full 3-minute runs and
// quick runs for CI.
type RunOpts struct {
	// Seed for reproducibility. Zero is a valid seed.
	Seed int64
	// Duration of the measured window; zero means the paper's 3 minutes.
	Duration simnet.Duration
	// Ramp before measurement; zero means 20 s.
	Ramp simnet.Duration
}

func (o RunOpts) duration() simnet.Duration {
	if o.Duration > 0 {
		return o.Duration
	}
	return 3 * simnet.Minute
}

func (o RunOpts) ramp() simnet.Duration {
	if o.Ramp > 0 {
		return o.Ramp
	}
	return 20 * simnet.Second
}

// QuickOpts returns RunOpts sized for fast test runs.
func QuickOpts(seed int64) RunOpts {
	return RunOpts{Seed: seed, Duration: 40 * simnet.Second, Ramp: 10 * simnet.Second}
}

// testbed returns the configuration every runner starts from: the
// paper's 1L/2S/1L/2S deployment at the given workload, with bursty
// clients and the concurrent ("JDK 1.6") collector, over opts' window
// and seed. Runners switch the paper's mechanisms on from here.
func testbed(users int, opts RunOpts) ntier.Config {
	return ntier.Config{
		Users:        users,
		Duration:     opts.duration(),
		Ramp:         opts.ramp(),
		Seed:         opts.Seed,
		AppCollector: jvm.CollectorConcurrent,
		Burst:        ntier.DefaultBurst(),
	}
}

// simulated, when a test sets it before any runner starts, sees every run.
var simulated func(*ntier.System, *ntier.Result)

// simulate builds and runs one system.
func simulate(cfg ntier.Config) (*ntier.System, *ntier.Result, error) {
	sys, err := ntier.Build(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: build: %w", err)
	}
	res, err := sys.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: run: %w", err)
	}
	if simulated != nil {
		simulated(sys, res)
	}
	return sys, res, nil
}

// analyzeInstance runs the §III pipeline over a single component server —
// the paper's unit of analysis ("we apply the above analysis to each
// component server", §III). With multiple instances per tier, a freeze of
// one server is only visible at instance granularity: the sibling keeps
// completing requests and masks the zero-throughput signature at tier
// level.
func analyzeInstance(res *ntier.Result, name string, interval simnet.Duration) (*core.Analysis, error) {
	visits := trace.Filter(res.Visits, name)
	w := core.Window{Start: res.WindowStart, End: res.WindowEnd}
	a, err := core.AnalyzeServer(name, visits, w, core.Options{Interval: interval})
	if err != nil {
		return nil, fmt.Errorf("experiments: analyze %s: %w", name, err)
	}
	return a, nil
}

// rtPerInterval averages end-to-end response time (seconds) over the
// transactions completing in each interval — the paper's "system response
// time averaged in every 50ms" (Fig 10b, 11b/c).
func rtPerInterval(samples []workload.RTSample, w core.Window, interval simnet.Duration) (*metrics.IntervalSeries, error) {
	sums, err := metrics.NewIntervalSeriesCovering(w.Start, w.End, interval)
	if err != nil {
		return nil, err
	}
	counts, err := metrics.NewIntervalSeriesCovering(w.Start, w.End, interval)
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		sums.AddAt(s.Done, s.RT().Seconds())
		counts.AddAt(s.Done, 1)
	}
	for i := 0; i < sums.Len(); i++ {
		if c := counts.Value(i); c > 0 {
			if err := sums.Set(i, sums.Value(i)/c); err != nil {
				return nil, err
			}
		}
	}
	return sums, nil
}

// netRates computes per-server receive/send rates in MB/s from the wire
// capture over the measured window (Table I's network columns).
func netRates(res *ntier.Result) map[string][2]float64 {
	span := (res.WindowEnd - res.WindowStart).Seconds()
	out := make(map[string][2]float64)
	if span <= 0 {
		return out
	}
	const mb = 1024 * 1024
	for _, m := range res.Messages {
		if m.At < res.WindowStart || m.At >= res.WindowEnd {
			continue
		}
		recv := out[m.To]
		recv[0] += float64(m.Bytes) / mb / span
		out[m.To] = recv
		send := out[m.From]
		send[1] += float64(m.Bytes) / mb / span
		out[m.From] = send
	}
	return out
}

// maxLaggedCorrelation returns the strongest Pearson correlation between
// xs and ys shifted by 0..maxLag samples (ys lagging xs), plus the lag at
// which it occurs. A stop-the-world GC freeze raises the load *over* the
// following intervals (requests pile up during and drain after the
// pause), so the load response trails the GC-ratio spike by a few
// intervals; plain same-interval correlation understates the coupling.
func maxLaggedCorrelation(xs, ys []float64, maxLag int) (best float64, bestLag int) {
	for lag := 0; lag <= maxLag; lag++ {
		if lag >= len(ys) {
			break
		}
		n := len(xs)
		if len(ys)-lag < n {
			n = len(ys) - lag
		}
		r := stats.PearsonR(xs[:n], ys[lag:lag+n])
		if r > best {
			best = r
			bestLag = lag
		}
	}
	return best, bestLag
}

// tierUtil averages the utilization of all servers in a tier.
func tierUtil(res *ntier.Result, prefix string) float64 {
	var sum float64
	var n int
	for name, u := range res.Utilization {
		if strings.HasPrefix(name, prefix) {
			sum += u
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
