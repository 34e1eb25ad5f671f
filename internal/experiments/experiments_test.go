package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"transientbd/internal/simnet"
)

// The tests in this file assert the paper's qualitative claims per
// artifact on reduced-duration runs (QuickOpts). EXPERIMENTS.md records
// the full-duration numbers.

func TestFig2ThroughputCurveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	t.Parallel()
	wls := []int{2000, 6000, 8000, 11000, 14000}
	r, err := Fig2(wls, QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(wls) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(wls))
	}
	byWL := map[int]Fig2Row{}
	for _, row := range r.Rows {
		byWL[row.Users] = row
	}
	// Linear growth region: throughput roughly proportional to WL.
	if byWL[6000].PagesPerSecond < 2.2*byWL[2000].PagesPerSecond {
		t.Errorf("throughput not growing linearly: %f @6000 vs %f @2000",
			byWL[6000].PagesPerSecond, byWL[2000].PagesPerSecond)
	}
	// Beyond the knee throughput flattens (Fig 2a).
	if byWL[14000].PagesPerSecond > 1.15*byWL[11000].PagesPerSecond {
		t.Errorf("no knee: %f @14000 vs %f @11000",
			byWL[14000].PagesPerSecond, byWL[11000].PagesPerSecond)
	}
	// RT deterioration starts before max throughput (Fig 2b): %RT>2s at
	// WL 8,000 already exceeds the low-load level.
	if byWL[8000].FracOver2s <= byWL[2000].FracOver2s {
		t.Errorf("%%RT>2s did not rise before the knee: %.4f @8000 vs %.4f @2000",
			byWL[8000].FracOver2s, byWL[2000].FracOver2s)
	}
	// Mean RT grows with workload.
	if byWL[14000].MeanRTSeconds <= byWL[2000].MeanRTSeconds {
		t.Error("mean RT did not grow with workload")
	}
	if r.KneeUsers == 0 {
		t.Error("knee not located")
	}
}

func TestFig2HistogramLongTail(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	r, err := Fig2([]int{8000}, QuickOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Histogram == nil {
		t.Fatal("no WL 8,000 histogram")
	}
	// Long tail: the >4s bucket and the sub-second buckets both occupied,
	// spanning 2-3 orders of magnitude in count (Fig 2c).
	if r.Histogram.Count(0)+r.Histogram.Count(1) == 0 {
		t.Error("no fast responses")
	}
	// Bi-modal shape: a second mode in the multi-second region (TCP
	// retransmission cluster at ~3s).
	edges, counts := r.Histogram.Buckets()
	var slowCount int64
	for i, e := range edges {
		if e >= 2.5 {
			slowCount += counts[i]
		}
	}
	if slowCount == 0 {
		t.Error("no slow-mode responses around the retransmission cluster")
	}
}

func TestFig3TableIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	r, err := Fig3TableI(QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	// Fig 3 claim: Tomcat and MySQL below full utilization, around 80%.
	if r.TomcatAvg < 0.60 || r.TomcatAvg > 0.97 {
		t.Errorf("tomcat avg util = %.3f, want high but not saturated", r.TomcatAvg)
	}
	if r.MySQLAvg < 0.55 || r.MySQLAvg > 0.97 {
		t.Errorf("mysql avg util = %.3f, want high but not saturated", r.MySQLAvg)
	}
	// Table I claim: all other resources far from saturation.
	if r.TierCPU["Apache"] > 0.55 || r.TierCPU["CJDBC"] > 0.55 {
		t.Errorf("web/middleware CPU not far from saturation: %.2f / %.2f",
			r.TierCPU["Apache"], r.TierCPU["CJDBC"])
	}
	// Network flows exist and web tier sends the most (pages).
	apacheNet := r.TierNet["Apache"]
	if apacheNet[1] <= 0 {
		t.Error("apache sends no traffic")
	}
	mysqlNet := r.TierNet["MySQL"]
	if mysqlNet[1] <= 0 || mysqlNet[1] >= apacheNet[1] {
		t.Errorf("mysql send %.2f should be positive and below apache send %.2f",
			mysqlNet[1], apacheNet[1])
	}
	if len(r.TomcatUtil) == 0 || len(r.MySQLUtil) == 0 {
		t.Error("missing 1s utilization timelines")
	}
}

func TestFig4ReconstructionAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	r, err := Fig4(QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	// §II-C: "more than 99% accuracy ... even when the application is
	// under a high concurrent workload".
	if r.Accuracy < 0.99 {
		t.Errorf("reconstruction accuracy = %.4f, want >= 0.99", r.Accuracy)
	}
	if r.PairedHops == 0 || r.Messages == 0 {
		t.Error("empty reconstruction")
	}
	if !strings.Contains(r.SampleTransaction, "apache") {
		t.Errorf("sample transaction missing web tier:\n%s", r.SampleTransaction)
	}
}

func TestFig5MySQLTransientCongestion(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	r, err := Fig5(QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	a := r.Analysis
	// MySQL congests transiently at WL 7,000 with SpeedStep: some but
	// not all intervals.
	if a.CongestedFraction <= 0 || a.CongestedFraction > 0.7 {
		t.Errorf("congested fraction = %.3f, want transient regime", a.CongestedFraction)
	}
	if !a.NStar.Saturated {
		t.Error("no congestion point found despite short-term congestion")
	}
	if a.NStar.NStar < 1 {
		t.Errorf("N* = %.2f, want >= 1", a.NStar.NStar)
	}
	if len(r.ExcerptLoad) == 0 || len(r.ExcerptTP) == 0 {
		t.Error("missing 12s excerpt")
	}
	// Load fluctuates significantly (Fig 5a claim).
	lo, hi := r.ExcerptLoad[0], r.ExcerptLoad[0]
	for _, v := range r.ExcerptLoad {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < 2*lo+1 {
		t.Errorf("load excerpt does not fluctuate: [%f, %f]", lo, hi)
	}
}

func TestFig6ExactValues(t *testing.T) {
	r, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Loads) != 2 {
		t.Fatalf("loads = %v", r.Loads)
	}
	if r.Loads[0] != 0.5 || r.Loads[1] != 1.1 {
		t.Errorf("loads = %v, want [0.5 1.1]", r.Loads)
	}
}

func TestFig7ExactValues(t *testing.T) {
	r, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if r.Unit != 10*simnet.Millisecond {
		t.Errorf("unit = %v, want 10ms", r.Unit)
	}
	wantRaw := []float64{2, 2, 4}
	wantNorm := []float64{6, 4, 4}
	for i := range wantRaw {
		if r.Straightforward[i] != wantRaw[i] {
			t.Errorf("straightforward[%d] = %v, want %v", i, r.Straightforward[i], wantRaw[i])
		}
		if r.Normalized[i] != wantNorm[i] {
			t.Errorf("normalized[%d] = %v, want %v", i, r.Normalized[i], wantNorm[i])
		}
	}
}

func TestFig8IntervalSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	r, err := Fig8(QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(r.Series))
	}
	s20, s50, s1000 := r.Series[0], r.Series[1], r.Series[2]
	// Point counts scale inversely with interval length (paper: 9,000 /
	// 3,600 / 180 over 3 minutes).
	if s20.Points != s50.Points*5/2 {
		t.Errorf("points 20ms = %d, want 2.5× of 50ms (%d)", s20.Points, s50.Points)
	}
	if s50.Points != s1000.Points*20 {
		t.Errorf("points 50ms = %d, want 20× of 1s (%d)", s50.Points, s1000.Points)
	}
	// Long intervals average transient load peaks away (Fig 8c).
	if s1000.MaxLoad >= s50.MaxLoad {
		t.Errorf("1s max load %.1f not below 50ms max load %.1f", s1000.MaxLoad, s50.MaxLoad)
	}
	// And therefore detect less congestion.
	if s1000.CongestedFraction > s50.CongestedFraction {
		t.Errorf("coarse interval detected more congestion (%.3f) than 50ms (%.3f)",
			s1000.CongestedFraction, s50.CongestedFraction)
	}
}

func TestGCCaseShape(t *testing.T) {
	if testing.Short() {
		t.Skip("three simulation runs")
	}
	t.Parallel()
	r, err := GCCase(QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	checkCaseGraphs(t, "serial GC at WL 14 000")
	// Fig 9: WL 14,000 with JDK 1.5 shows frequent transient bottlenecks
	// and POIs; WL 7,000 far fewer.
	if r.Fig9b.CongestedFraction <= r.Fig9a.CongestedFraction {
		t.Errorf("WL14k congestion %.3f not above WL7k %.3f",
			r.Fig9b.CongestedFraction, r.Fig9a.CongestedFraction)
	}
	if len(r.Fig9b.POIs) == 0 {
		t.Error("no POIs at WL 14,000 with the serial collector")
	}
	// Fig 11: the JDK 1.6 upgrade removes the POIs and reduces congestion.
	if len(r.Fig11a.POIs) >= len(r.Fig9b.POIs)/4+1 {
		t.Errorf("JDK 1.6 POIs = %d, want far fewer than JDK 1.5's %d",
			len(r.Fig11a.POIs), len(r.Fig9b.POIs))
	}
	if r.Fig11a.CongestedFraction >= r.Fig9b.CongestedFraction {
		t.Errorf("JDK 1.6 congestion %.3f not below JDK 1.5 %.3f",
			r.Fig11a.CongestedFraction, r.Fig9b.CongestedFraction)
	}
	// Fig 11(b)/(c): RT fluctuation shrinks after the upgrade.
	if r.RTSD16 >= r.RTSD15 {
		t.Errorf("RT sd with JDK 1.6 (%.3f) not below JDK 1.5 (%.3f)", r.RTSD16, r.RTSD15)
	}
	// The serial collector's total stop-the-world time dwarfs the
	// concurrent collector's.
	if r.TotalPause15 < 5*r.TotalPause16 {
		t.Errorf("STW pause 1.5 = %v vs 1.6 = %v, want >= 5×", r.TotalPause15, r.TotalPause16)
	}
	// Fig 10(a): GC freezes coincide with load rises.
	if r.GCLoadRiseFraction < 0.6 {
		t.Errorf("load rose during only %.0f%% of collections, want most", 100*r.GCLoadRiseFraction)
	}
	if r.GCLoadCorrelation <= 0 {
		t.Errorf("GC/load correlation = %.3f, want positive", r.GCLoadCorrelation)
	}
	// Fig 10(b): load correlates positively with system RT.
	if r.LoadRTCorrelation < 0.3 {
		t.Errorf("load/RT correlation = %.3f, want strong positive", r.LoadRTCorrelation)
	}
}

func TestSpeedStepCaseShape(t *testing.T) {
	if testing.Short() {
		t.Skip("four simulation runs")
	}
	t.Parallel()
	r, err := SpeedStepCase(QuickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	checkCaseGraphs(t, "SpeedStep at WL 8 000")
	// Fig 12: with SpeedStep the congested intervals pile up at multiple
	// distinct throughput plateaus (one per P-state group).
	if len(r.On8k.CongestedTPTrends) < 2 {
		t.Errorf("SpeedStep ON WL 8,000 trends = %v, want >= 2", r.On8k.CongestedTPTrends)
	}
	// Fig 13: pinned at P0 there is a single trend.
	if len(r.Off8k.CongestedTPTrends) != 1 {
		t.Errorf("SpeedStep OFF WL 8,000 trends = %v, want exactly 1", r.Off8k.CongestedTPTrends)
	}
	if len(r.Off10k.CongestedTPTrends) != 1 {
		t.Errorf("SpeedStep OFF WL 10,000 trends = %v, want exactly 1", r.Off10k.CongestedTPTrends)
	}
	// The governor actually moves only when enabled.
	if r.On8k.Transitions == 0 || r.On10k.Transitions == 0 {
		t.Error("no P-state transitions with SpeedStep enabled")
	}
	if r.Off8k.Transitions != 0 || r.Off10k.Transitions != 0 {
		t.Error("P-state transitions despite SpeedStep disabled")
	}
	// §IV-D: disabling SpeedStep reduces transient bottlenecks at WL 8,000.
	if r.On8k.Analysis.CongestedFraction <= r.Off8k.Analysis.CongestedFraction {
		t.Errorf("ON congestion %.3f not above OFF %.3f at WL 8,000",
			r.On8k.Analysis.CongestedFraction, r.Off8k.Analysis.CongestedFraction)
	}
	// With SpeedStep the DB hosts spend real time below P0.
	belowP0 := 0.0
	for i, frac := range r.On8k.Residency {
		if i > 0 {
			belowP0 += frac
		}
	}
	if belowP0 < 0.1 {
		t.Errorf("ON WL 8,000 spends only %.2f below P0; governor never throttled", belowP0)
	}
}

func TestTableIIRendering(t *testing.T) {
	tbl := TableII()
	s := tbl.String()
	for _, want := range []string{"P0", "2261", "P8", "1197"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table II missing %q:\n%s", want, s)
		}
	}
}

func TestRegistryCompleteness(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range Registry() {
		if r.ID == "" || r.Description == "" || r.Run == nil {
			t.Errorf("incomplete runner %+v", r)
		}
		if ids[r.ID] {
			t.Errorf("duplicate runner id %q", r.ID)
		}
		ids[r.ID] = true
	}
	for _, want := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9-11", "fig12-13", "tableII"} {
		if !ids[want] {
			t.Errorf("registry missing %q", want)
		}
	}
	if _, err := Find("fig6"); err != nil {
		t.Error(err)
	}
	if _, err := Find("nosuch"); err == nil {
		t.Error("Find(nosuch) should fail")
	}
}

// TestRegistryDeterministicRunners pins the runners that need no
// simulation to the blocks `experiments run all -seed 1` committed for
// them, so the registry's rendering path cannot drift unseen.
func TestRegistryDeterministicRunners(t *testing.T) {
	t.Parallel()
	full, err := os.ReadFile(filepath.Join("..", "..", "experiments_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig6", "fig7", "tableII"} {
		r, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		if err := r.Run(&got, RunOpts{}); err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		want, ok := committedBlock(string(full), r)
		if !ok {
			t.Errorf("experiments_full.txt has no %s block", id)
			continue
		}
		if got.String() != want {
			t.Errorf("%s output differs from experiments_full.txt:\n%s\nwant:\n%s", id, got.String(), want)
		}
	}
}

// committedBlock returns what `experiments run all` wrote for r in a
// committed file: the text after r's header line, up to the next header.
func committedBlock(all string, r Runner) (string, bool) {
	_, rest, ok := strings.Cut(all, fmt.Sprintf("=== %s: %s ===\n", r.ID, r.Description))
	if !ok {
		return "", false
	}
	if i := strings.Index(rest, "\n=== "); i >= 0 {
		rest = rest[:i+1]
	}
	return rest, true
}

func TestSparkline(t *testing.T) {
	if s := Sparkline(nil, 10); s != "" {
		t.Errorf("empty sparkline = %q", s)
	}
	s := Sparkline([]float64{0, 1, 2, 3}, 4)
	if len([]rune(s)) != 4 {
		t.Errorf("sparkline width = %d, want 4", len([]rune(s)))
	}
	// Downsampling path.
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i)
	}
	s = Sparkline(long, 10)
	if len([]rune(s)) != 10 {
		t.Errorf("downsampled width = %d, want 10", len([]rune(s)))
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}}
	tbl.AddRow("x", 1.5)
	tbl.AddRow(2, "y")
	s := tbl.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "1.50") || !strings.Contains(s, "--") {
		t.Errorf("table rendering wrong:\n%s", s)
	}
}

func TestTrendLevels(t *testing.T) {
	// Two clear plateaus.
	var tps []float64
	for i := 0; i < 50; i++ {
		tps = append(tps, 100+float64(i%5))
		tps = append(tps, 200+float64(i%5))
	}
	levels := trendLevels(tps, 0.03, 3)
	if len(levels) != 2 {
		t.Fatalf("levels = %v, want 2 plateaus", levels)
	}
	if levels[0] > 130 || levels[1] < 170 {
		t.Errorf("levels = %v, want ~100 and ~200", levels)
	}
	// Degenerate inputs.
	if got := trendLevels(nil, 0.03, 2); got != nil {
		t.Errorf("nil input -> %v", got)
	}
	if got := trendLevels([]float64{1, 2}, 0.03, 1); got != nil {
		t.Errorf("tiny input -> %v", got)
	}
}

func TestMaxLaggedCorrelation(t *testing.T) {
	x := []float64{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0}
	// y follows x with lag 2.
	y := []float64{0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0}
	r, lag := maxLaggedCorrelation(x, y, 5)
	if lag != 2 {
		t.Errorf("lag = %d, want 2", lag)
	}
	if r < 0.9 {
		t.Errorf("r = %.3f, want ~1", r)
	}
}

func TestWriteDataCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	dir := t.TempDir()
	if err := WriteData("fig5", dir, QuickOpts(1)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig5c_points.csv", "fig5ab_timeline.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 10 {
			t.Errorf("%s has %d lines, want a real series", name, len(lines))
		}
		if !strings.Contains(lines[0], "load") {
			t.Errorf("%s header = %q", name, lines[0])
		}
	}
	if err := WriteData("tableII", dir, QuickOpts(1)); err == nil {
		t.Error("want error for non-series artifact")
	}
}
