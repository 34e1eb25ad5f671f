package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"transientbd/internal/simnet"
	"transientbd/internal/trace"
)

func TestTraceQualityCoverage(t *testing.T) {
	var q TraceQuality
	if c := q.Coverage(); c != 1 {
		t.Errorf("empty report coverage = %v, want 1", c)
	}
	q = TraceQuality{VisitsAssembled: 90, VisitsQuarantined: 5, LinesSkipped: 5}
	if c := q.Coverage(); c != 0.9 {
		t.Errorf("coverage = %v, want 0.9", c)
	}
}

func TestTraceQualityString(t *testing.T) {
	q := TraceQuality{
		LinesRead: 100, LinesSkipped: 3,
		VisitsAssembled: 90, VisitsQuarantined: 7,
		OrphanReturns: 2, DuplicateMessages: 1, NegativeSpans: 1, InFlight: 2, TimedOut: 1,
		SkewViolations: 4, VisitsRepaired: 12,
		SkewOffsets:    map[string]simnet.Duration{"mysql-1": 5 * simnet.Millisecond},
		ServersSkipped: 1,
	}
	s := q.String()
	for _, want := range []string{
		"100 / 3", "orphan returns 2", "mysql-1 +5ms", "4 / 12", "servers skipped", "coverage",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("quality block missing %q:\n%s", want, s)
		}
	}
}

// A server whose visits are unusable is skipped and counted; the report
// rides on the SystemAnalysis.
func TestAnalyzeSystemGroupedCountsSkippedServers(t *testing.T) {
	good := synthServer(synthConfig{
		service: 5 * ms, cores: 2, baseRate: 240,
		horizon: 10 * simnet.Second, seed: 11,
	})
	for i := range good {
		good[i].Server = "tomcat"
	}
	q := &TraceQuality{}
	sys, err := AnalyzeSystemGrouped(map[string][]trace.Visit{
		"tomcat": good,
		"mysql":  nil, // no data at all: ErrNoVisits inside AnalyzeServer
	}, Window{Start: 0, End: 10 * simnet.Second}, Options{Quality: q})
	if err != nil {
		t.Fatal(err)
	}
	if q.ServersSkipped != 1 {
		t.Errorf("ServersSkipped = %d, want 1", q.ServersSkipped)
	}
	if len(sys.Skipped) != 1 || sys.Skipped[0].Server != "mysql" || !errors.Is(sys.Skipped[0].Err, ErrNoVisits) {
		t.Errorf("Skipped = %+v, want mysql with ErrNoVisits", sys.Skipped)
	}
	if sys.Quality != q {
		t.Error("quality report not attached to SystemAnalysis")
	}
	if sys.PerServer["tomcat"] == nil {
		t.Error("usable server missing from the analysis")
	}
}

func TestAnalyzeSystemGroupedNilQuality(t *testing.T) {
	good := synthServer(synthConfig{
		service: 5 * ms, cores: 2, baseRate: 240,
		horizon: 10 * simnet.Second, seed: 12,
	})
	sys, err := AnalyzeSystemGrouped(map[string][]trace.Visit{
		"tomcat": good,
		"mysql":  nil,
	}, Window{Start: 0, End: 10 * simnet.Second}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Quality != nil {
		t.Error("Quality should stay nil when the caller supplied none")
	}
}

// Non-finite points must not poison the curve or the congestion point.
func TestBinCurveDropsNonFinitePoints(t *testing.T) {
	pts := []Point{
		{Load: math.Inf(1), TP: 100},
		{Load: math.NaN(), TP: 100},
		{Load: 2, TP: math.NaN()},
		{Load: 2, TP: math.Inf(-1)},
		{Load: 1, TP: 50},
		{Load: 1, TP: 52},
	}
	curve, err := binCurve(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range curve {
		if math.IsNaN(b.Load) || math.IsInf(b.Load, 0) || math.IsNaN(b.TP) || math.IsInf(b.TP, 0) {
			t.Fatalf("non-finite bin survived: %+v", b)
		}
	}
	res, err := EstimateNStar(pts, NStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.NStar) || math.IsInf(res.NStar, 0) {
		t.Fatalf("N* is non-finite: %v", res.NStar)
	}
}
