// Command benchmark is the repository's benchmark: it builds tbdetect
// and ntiersim from the checkout, generates a trace from the seed, drives
// the built binaries as child processes through four workloads with
// tracing off, checks every output against a reference, and prints the
// end-to-end metrics; a separate traced run replays the same inputs
// in-process with a span around every call into a layer and prints the
// per-layer ledger. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run — exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is the fuller record left in benchmark/out/.
type resultFile struct {
	Env      envInfo    `json:"env"`
	Workload string     `json:"workload"`
	Traced   bool       `json:"traced"`
	Result   result     `json:"result"`
	Passes   []passInfo `json:"passes,omitempty"`
	Samples  samples    `json:"samples"`
	Notes    []string   `json:"notes,omitempty"`
}

// passInfo is one pass as measured, before medians are taken.
type passInfo struct {
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	RSSMB     float64 `json:"rss_mb"`
	Records   int     `json:"records"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Completed bool    `json:"completed"`
}

// samples says how many observations stand behind the timings.
type samples struct {
	Passes      int `json:"passes"`
	Latency     int `json:"latency"`
	LatencyTail int `json:"latency_beyond_p95"`
}

// benchmarkSpec mirrors BENCHMARK.json, the one place names, units,
// directions and bounds are declared; the harness reports a metric under
// the name and unit found there and nowhere else (see report).
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// End-to-end metric names, as BENCHMARK.json declares them.
const (
	mSetup      = "setup_s"
	mRecords    = "records_per_s"
	mCPU        = "cpu_us_per_record"
	mRSS        = "peak_rss_mb"
	mLatencyP50 = "detect_latency_p50_ms"
	mLatencyP95 = "detect_latency_p95_ms"
)

// setup builds the programs, generates the input and computes the
// references the named workloads are checked against. Its wall time is
// setup_s.
func setup(d dirs, spec *benchmarkSpec, trace traceSpec, seed int64, seconds float64, workloads []string) (*bench, time.Duration, error) {
	begin := time.Now()
	if err := buildBinaries(d); err != nil {
		return nil, 0, err
	}
	in, err := generate(d, trace, seed)
	if err != nil {
		return nil, 0, err
	}
	b := &bench{d: d, spec: spec, in: in, seconds: seconds}
	b.pacedSpeed = float64(in.all.depart[in.all.lines()-1]-in.all.depart[0]) / 1e6 / seconds
	for _, w := range workloads {
		switch w {
		case wlBatchFile:
			if b.batchRows, err = referenceBatch(in.visits); err != nil {
				return nil, 0, err
			}
		case wlFollowMax, wlFollowPaced:
			if b.follow == nil {
				if b.follow, err = referenceFollow(in.visits); err != nil {
					return nil, 0, err
				}
			}
		case wlAgentsMerge:
			if err = in.writeNodes(); err != nil {
				return nil, 0, err
			}
			if b.merge, err = referenceMerge(in.visits); err != nil {
				return nil, 0, err
			}
		default:
			return nil, 0, fmt.Errorf("unknown workload %q (have %v)", w, workloadNames)
		}
	}
	// Collect set-up's garbage now, so the harness's own collector does
	// not compete with the first pass for the two cores.
	runtime.GC()
	return b, time.Since(begin), nil
}

// runPasses runs the workload for about b.seconds: the open-loop
// workload is one pass of that length; a closed-loop workload makes
// back-to-back passes, at least two, starting another while it is
// expected to end within the time. A pass that fails ends the run, so a
// wedged program costs one deadline, not several.
func (b *bench) runPasses(workload string) []passResult {
	pass := b.passOf(workload)
	var out []passResult
	begin := time.Now()
	for {
		b.tag = fmt.Sprintf("%s-pass%d", workload, len(out)+1)
		r := pass()
		out = append(out, r)
		if !r.completed || workload == wlFollowPaced {
			return out
		}
		elapsed := time.Since(begin).Seconds()
		if len(out) >= 2 && elapsed+r.wall.Seconds() > b.seconds*1.15 {
			return out
		}
	}
}

// summarize turns the passes of one workload into the end-to-end
// metrics: a timing is the median over completed passes; latencies pool
// every pass's samples.
func (b *bench) summarize(workload string, passes []passResult, setupS float64) (result, samples, []string, error) {
	res := result{Metrics: map[string]metricValue{}}
	var rate, cpu, rss, latency []float64
	var notes []string
	for i, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, n := range p.notes {
			notes = append(notes, fmt.Sprintf("pass %d: %s", i+1, n))
		}
		if len(p.genLagMS) > 0 {
			lag, _ := percentile(sortedCopy(p.genLagMS), 0.95)
			notes = append(notes, fmt.Sprintf("pass %d: generator offered %.0f records/s and ran %.3f ms late at p95", i+1, p.offered, lag))
		}
		if !p.completed || p.records == 0 {
			continue
		}
		rate = append(rate, float64(p.records)/p.wall.Seconds())
		cpu = append(cpu, float64(p.cpu.Microseconds())/float64(p.records))
		rss = append(rss, float64(p.rssKiB)/1024)
		latency = append(latency, p.latencyMS...)
	}
	sm := samples{Passes: len(rate), Latency: len(latency)}
	if len(rate) == 0 {
		return res, sm, notes, errors.New("no pass completed; nothing to time")
	}
	if len(latency) == 0 {
		return res, sm, notes, errors.New("no output item matched its reference; no latency sample")
	}
	sorted := sortedCopy(latency)
	p50, _ := percentile(sorted, 0.50)
	p95, beyond := percentile(sorted, 0.95)
	sm.LatencyTail = beyond
	// The workloads fed from complete files have one delay per pass (the
	// complete result), never the 200 a p95 needs; there the figure is
	// the slowest pass and says so. On the workloads fed through a pipe,
	// where every alert is a sample, a p95 without ten samples beyond it
	// is refused.
	if beyond < minBeyond {
		if workload == wlFollowMax || workload == wlFollowPaced {
			return res, sm, notes, fmt.Errorf("%d latency samples leave %d beyond p95; need %d", len(sorted), beyond, minBeyond)
		}
		notes = append(notes, fmt.Sprintf("%s: %d result delays, one per pass; reported is the slowest pass", mLatencyP95, len(sorted)))
	}
	err := b.report(&res, map[string]float64{
		mSetup: setupS, mRecords: median(rate), mCPU: median(cpu), mRSS: median(rss),
		mLatencyP50: p50, mLatencyP95: p95,
	}, b.spec.EndToEnd)
	if err != nil {
		return res, sm, notes, err
	}
	res.Correct = res.Failed == 0 && len(rate) == len(passes)
	return res, sm, notes, nil
}

// report moves measured values into res under the names and units
// declared: every declared metric must have been measured and nothing
// else may have been.
func (b *bench) report(res *result, measured map[string]float64, declared []metricSpec) error {
	for _, m := range declared {
		v, ok := measured[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %s but the harness did not measure it", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(measured) != len(declared) {
		for name := range measured {
			if _, ok := res.Metrics[name]; !ok {
				return fmt.Errorf("the harness measured %s, which BENCHMARK.json does not declare", name)
			}
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printMetrics lists every metric by name with its unit, for a reader.
func printMetrics(w *os.File, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// runOne is one (workload, traced?) run including its set-up.
func runOne(d dirs, spec *benchmarkSpec, workload string, seed int64, seconds float64, traced bool) (result, error) {
	b, setupDur, err := setup(d, spec, fullTrace, seed, seconds, []string{workload})
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	env := gatherEnv(d, seed, seconds)
	var res result
	var sm samples
	var notes []string
	var infos []passInfo
	if traced {
		res, notes, err = b.tracedRun(workload, env)
	} else {
		passes := b.runPasses(workload)
		res, sm, notes, err = b.summarize(workload, passes, setupDur.Seconds())
		for _, p := range passes {
			infos = append(infos, passInfo{
				WallS: p.wall.Seconds(), CPUS: p.cpu.Seconds(), RSSMB: float64(p.rssKiB) / 1024,
				Records: p.records, Attempted: p.attempted, Failed: p.failed, Completed: p.completed,
			})
		}
	}
	t := 0
	if traced {
		t = 1
	}
	file := resultFile{Env: env, Workload: workload, Traced: traced, Result: res, Passes: infos, Samples: sm, Notes: notes}
	if werr := writeJSON(filepath.Join(d.out, fmt.Sprintf("result-%s-trace%d.json", workload, t)), file); werr != nil && err == nil {
		err = werr
	}
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	return res, err
}

func run() error {
	var (
		workload = flag.String("workload", "", "run one workload: "+fmt.Sprint(workloadNames)+" (default: all)")
		seed     = flag.Int64("seed", 1, "seed of the generated trace; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "how long a run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0: end-to-end run, tracing off; 1: traced in-process run, per-layer metrics (default: both)")
		repeat   = flag.Int("repeat", 0, "run the end-to-end set N times (seeds seed..seed+N-1, alternating workload order) and check each metric's spread against its bound")
		root     = flag.String("root", "", "the checkout to build and measure (default: the working directory, or its parent when run from benchmark/)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if *root == "" {
		*root = "."
		if _, err := os.Stat("cmd/tbdetect"); err != nil {
			*root = ".."
		}
	}
	d, err := newDirs(*root)
	if err != nil {
		return err
	}
	spec, err := loadSpec(d.root)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	workloads := workloadNames
	if *workload != "" {
		workloads = []string{*workload}
	}
	if *repeat > 0 {
		return runRepeat(d, spec, workloads, *seed, *seconds, *repeat)
	}
	var failed bool
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if (*trace == 0 && traced) || (*trace == 1 && !traced) {
				continue
			}
			res, err := runOne(d, spec, w, *seed, *seconds, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			failed = failed || !res.Correct
			if len(workloads) > 1 || *trace < 0 {
				printMetrics(os.Stdout, w, res)
			}
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Println(string(line))
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: some output did not match its reference; see the notes above and benchmark/out/")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
