package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

// handFeed is a depart-ordered feed with one byte-line per record.
func handFeed(departs ...int64) *feed {
	f := &feed{depart: departs}
	for i := range departs {
		f.data = append(f.data, 'x', '\n')
		f.ends = append(f.ends, 2*(i+1))
	}
	return f
}

func TestSealingRuleAndDueTimeLatency(t *testing.T) {
	// Records depart every 100 ms of trace time from 0 to 2 s.
	var departs []int64
	for d := int64(0); d <= 2_000_000; d += 100_000 {
		departs = append(departs, d)
	}
	f := handFeed(departs...)
	threshold := (interval + flushLag).Microseconds() // 1.05 s

	// An interval starting at 0.4 s is sealed by the first record
	// departing at or after 1.45 s: the one at 1.5 s, index 15.
	if got := sealingIndex(f, 400_000, threshold); got != 15 {
		t.Fatalf("sealing index = %d, want 15", got)
	}
	// A departure exactly on the threshold seals.
	if got := sealingIndex(f, 450_000, threshold); got != 15 {
		t.Fatalf("sealing index on the threshold = %d, want 15", got)
	}
	// No record departs at or after 2.05 s: sealed by end of input.
	if got := sealingIndex(f, 1_000_000, threshold); got != f.lines() {
		t.Fatalf("sealing index past the feed = %d, want %d", got, f.lines())
	}

	// Open loop at 2x: record i is due depart/2 after begin, whenever it
	// was actually written.
	begin := time.Unix(1000, 0)
	log := &feedLog{
		due:     func(i int) time.Time { return begin.Add(time.Duration(f.depart[i]) * time.Microsecond / 2) },
		written: f.lines(),
		closed:  begin.Add(1300 * time.Millisecond),
	}
	read := begin.Add(900 * time.Millisecond)
	from := log.availableAt(sealingIndex(f, 400_000, threshold))
	if want := begin.Add(750 * time.Millisecond); !from.Equal(want) {
		t.Fatalf("sealing record due at %v, want %v", from.Sub(begin), want.Sub(begin))
	}
	if got := read.Sub(from); got != 150*time.Millisecond {
		t.Fatalf("latency = %v, want 150ms", got)
	}
	// Sealed by end of input: timed from when the pipe was closed.
	if from := log.availableAt(sealingIndex(f, 1_000_000, threshold)); !from.Equal(log.closed) {
		t.Fatalf("end-of-input alert timed from %v, want the close at %v", from.Sub(begin), log.closed.Sub(begin))
	}

	// Closed loop: a line counts as handed over when its write returned.
	closedLoop := &feedLog{
		chunkEnd: []int{10, 21},
		chunkAt:  []time.Time{begin.Add(time.Second), begin.Add(2 * time.Second)},
		closed:   begin.Add(3 * time.Second),
	}
	if got := closedLoop.availableAt(9); !got.Equal(begin.Add(time.Second)) {
		t.Fatalf("line 9 handed over at %v, want 1s", got.Sub(begin))
	}
	if got := closedLoop.availableAt(10); !got.Equal(begin.Add(2 * time.Second)) {
		t.Fatalf("line 10 handed over at %v, want 2s", got.Sub(begin))
	}
	if got := closedLoop.availableAt(f.lines()); !got.Equal(closedLoop.closed) {
		t.Fatalf("end of input handed over at %v, want the close at 3s", got.Sub(begin))
	}
}

func TestCompareCountsItemsNotPositions(t *testing.T) {
	want := []string{"ALERT 1s a load=1.0 tp=1 CONGESTED", "ALERT 1s b load=2.0 tp=2 CONGESTED", "ALERT 2s a load=3.0 tp=3 FREEZE"}
	var same, missing, changed, extra, reordered passResult
	same.compare("alert", want, want)
	if same.attempted != 3 || same.failed != 0 {
		t.Errorf("identical: %d/%d failed", same.failed, same.attempted)
	}
	// One alert missing is one failed op, not every line after it.
	missing.compare("alert", want, []string{want[0], want[2]})
	if missing.attempted != 3 || missing.failed != 1 {
		t.Errorf("one missing: %d/%d failed, want 1/3", missing.failed, missing.attempted)
	}
	changed.compare("alert", want, []string{want[0], "ALERT 1s b load=2.1 tp=2 CONGESTED", want[2]})
	if changed.failed != 1 {
		t.Errorf("one different: %d failed, want 1", changed.failed)
	}
	extra.compare("alert", want, append(append([]string(nil), want...), "ALERT 3s a load=1.0 tp=1 CONGESTED"))
	if extra.attempted != 4 || extra.failed != 1 {
		t.Errorf("one extra: %d/%d failed, want 1/4", extra.failed, extra.attempted)
	}
	reordered.compare("alert", want, []string{want[1], want[0], want[2]})
	if reordered.failed != 1 {
		t.Errorf("reordered: %d failed, want 1", reordered.failed)
	}
}

func TestFeedPrefix(t *testing.T) {
	f := handFeed(0, 10, 20, 30, 40)
	if p := f.prefix(20); p.lines() != 3 || len(p.data) != 6 {
		t.Fatalf("prefix(20) has %d lines, %d bytes; want 3, 6", p.lines(), len(p.data))
	}
	if p := f.prefix(1000); p.lines() != 5 {
		t.Fatalf("prefix past the end has %d lines, want 5", p.lines())
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 0.90); v != 90 || beyond != minBeyond {
		t.Fatalf("p90 of 1..100 = %v with %d beyond; want 90 with ten", v, beyond)
	}
	if _, beyond := percentile(xs, 0.95); beyond >= minBeyond {
		t.Fatalf("p95 of 100 samples leaves %d beyond; five cannot support it", beyond)
	}
	if v, beyond := percentile(xs, 0.50); v != 50 || beyond != 50 {
		t.Fatalf("p50 of 1..100 = %v with %d beyond", v, beyond)
	}

	// summarize refuses a p95 the alerts cannot support, and reports the
	// slowest pass where a workload has one delay per pass.
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{spec: spec}
	pass := passResult{completed: true, records: 1000, wall: time.Second, cpu: time.Second, rssKiB: 1024, attempted: 1}
	pass.latencyMS = xs
	if _, _, _, err := b.summarize(wlFollowPaced, []passResult{pass}, 1); err == nil {
		t.Fatal("p95 over 100 alert latencies must be refused")
	}
	pass.latencyMS = append(append([]float64(nil), xs...), xs...)
	pass.latencyMS = append(pass.latencyMS, 1000)
	res, sm, _, err := b.summarize(wlFollowPaced, []passResult{pass}, 1)
	if err != nil || sm.LatencyTail != minBeyond || res.Metrics[mLatencyP95].Value != 96 {
		t.Fatalf("p95 over 201 samples = %v with %d beyond, err %v", res.Metrics[mLatencyP95].Value, sm.LatencyTail, err)
	}
	slow, fast := pass, pass
	slow.latencyMS, fast.latencyMS = []float64{3000}, []float64{2000}
	res, _, notes, err := b.summarize(wlBatchFile, []passResult{fast, slow, fast}, 1)
	if err != nil || res.Metrics[mLatencyP50].Value != 2000 || res.Metrics[mLatencyP95].Value != 3000 || len(notes) == 0 {
		t.Fatalf("per-pass delays: p50 %v p95 %v notes %v err %v", res.Metrics[mLatencyP50].Value, res.Metrics[mLatencyP95].Value, notes, err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25] (extrapolated)
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "traceio.StreamVisitsOpts", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "stream.Observe", StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, Name: "stream.Observe", StartNS: 50, EndNS: 70},
		{ID: 3, Parent: 2, Name: "core.x", StartNS: 55, EndNS: 60},
		// Overlapping children are covered once; a child running past
		// its parent is clipped.
		{ID: 4, Parent: 0, Name: "agent.a", StartNS: 60, EndNS: 90},
		{ID: 5, Parent: 0, Name: "agent.b", StartNS: 95, EndNS: 120},
		{ID: 6, Parent: -1, Name: "open.never_ended", StartNS: 5, EndNS: -1},
	}
	self := selfTimes(spans)
	// Covered: 10-30, 50-70, 70-90 (the part of 60-90 not yet covered),
	// 95-100.
	want := []int64{100 - 20 - 20 - 20 - 5, 20, 15, 5, 30, 25, 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	by := layerSelf(spans, nil)
	if by["stream"] != 35 || by["traceio"] != 35 || by["core"] != 5 {
		t.Errorf("layer self = %v", by)
	}
	// A nil tracer records nothing and does not panic.
	var off *tracer
	off.end(off.begin("x.y", -1))
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestNamesMatchBenchmarkJSON holds the harness and BENCHMARK.json to
// each other. The file is where names and units are declared; the
// harness refuses to report a metric it does not declare and to leave out
// one it does (report), which is checked here for the end-to-end metrics
// and by the traced run of TestMiniatureWorkloads for the per-layer ones.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, declared []metricSpec, bounded bool) {
		for _, m := range declared {
			if seen[m.Name] {
				t.Errorf("%s %s declared twice", kind, m.Name)
			}
			seen[m.Name] = true
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %s (%s): name or unit outside the allowed syntax", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better=%q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, true)
	check("per_layer", spec.PerLayer, false)
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(spec.PerLayer), len(spec.EndToEnd))
	}
	pass := passResult{completed: true, records: 1000, wall: time.Second, cpu: time.Second, rssKiB: 1024, attempted: 1, latencyMS: []float64{1}}
	res, _, _, err := (&bench{spec: spec}).summarize(wlBatchFile, []passResult{pass, pass}, 1)
	if err != nil {
		t.Errorf("end-to-end metrics measured and declared differ: %v", err)
	}
	if u := res.Metrics[mSetup]; u.Unit != "s" {
		t.Errorf("%s must be declared in seconds, is %q", mSetup, u.Unit)
	}
	extra := *spec
	extra.EndToEnd = append(append([]metricSpec(nil), spec.EndToEnd...), metricSpec{Name: "not_measured", Unit: "s"})
	if _, _, _, err := (&bench{spec: &extra}).summarize(wlBatchFile, []passResult{pass, pass}, 1); err == nil {
		t.Error("a declared metric the harness does not measure must be an error")
	}
	extra.EndToEnd = spec.EndToEnd[1:]
	if _, _, _, err := (&bench{spec: &extra}).summarize(wlBatchFile, []passResult{pass, pass}, 1); err == nil {
		t.Error("a measured metric BENCHMARK.json does not declare must be an error")
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	want := append([]string(nil), workloadNames...)
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, harness runs %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, harness runs %v", names, want)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// TestMiniatureWorkloads drives every workload end to end through the
// built binaries for two seconds on a tiny trace: every output item must
// match its reference, nothing may be dropped, late or lost, and no child
// may fail or be left over. One traced run must then produce every
// per-layer metric.
func TestMiniatureWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	d := dirs{root: root, bin: filepath.Join(tmp, "bin"), work: filepath.Join(tmp, "work"), out: filepath.Join(tmp, "out")}
	if err := d.mkdirs(); err != nil {
		t.Fatal(err)
	}
	tiny := traceSpec{users: 2000, duration: 6 * time.Second, ramp: 2 * time.Second}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	b, setupDur, err := setup(d, spec, tiny, 1, 2, workloadNames)
	if err != nil {
		t.Fatal(err)
	}
	if setupDur <= 0 || b.in.all.lines() == 0 {
		t.Fatalf("set-up took %v for %d records", setupDur, b.in.all.lines())
	}
	if a, bb := b.in.nodes["A"].lines(), b.in.nodes["B"].lines(); a == 0 || bb <= a || a+bb != b.in.all.lines() {
		t.Fatalf("node split A=%d B=%d of %d: want a skewed, complete split", a, bb, b.in.all.lines())
	}
	for _, w := range workloadNames {
		passes := b.runPasses(w)
		attempted, failed := 0, 0
		for i, p := range passes {
			attempted += p.attempted
			failed += p.failed
			if !p.completed {
				t.Errorf("%s pass %d did not complete: %v", w, i+1, p.notes)
			}
			if p.records == 0 || p.cpu <= 0 || p.rssKiB <= 0 || p.wall <= 0 {
				t.Errorf("%s pass %d: records=%d cpu=%v rss=%d wall=%v", w, i+1, p.records, p.cpu, p.rssKiB, p.wall)
			}
			for _, ms := range p.latencyMS {
				if ms < 0 || math.IsNaN(ms) {
					t.Errorf("%s pass %d: latency sample %v", w, i+1, ms)
					break
				}
			}
		}
		if attempted == 0 || failed != 0 {
			t.Errorf("%s: failed_ops_share = %d/%d, want 0 of some: %v", w, failed, attempted, passes[len(passes)-1].notes)
		}
		if w == wlFollowPaced && (len(passes) != 1 || len(passes[0].genLagMS) == 0 || passes[0].offered <= 0) {
			t.Errorf("%s: want one open-loop pass with generator lag and offered rate recorded", w)
		}
	}

	res, notes, err := b.tracedRun(wlFollowMax, gatherEnv(d, 1, 2))
	if err != nil {
		t.Fatalf("traced run: %v (%v)", err, notes)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced run: %d/%d ops failed: %v", res.Failed, res.Attempted, notes)
	}
	for _, m := range spec.PerLayer {
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("traced run: %s = %v %s (present %v)", m.Name, v.Value, v.Unit, ok)
		}
	}
	if _, err := os.Stat(filepath.Join(d.out, "trace-"+wlFollowMax+".json")); err != nil {
		t.Error(err)
	}
}
