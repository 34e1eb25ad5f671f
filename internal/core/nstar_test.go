package core

import (
	"math"
	"testing"
	"testing/quick"

	"transientbd/internal/simnet"
)

// syntheticMainSequence generates (load, tp) points following the
// Utilization Law shape of Fig 5(c): throughput rises linearly with load
// until the knee, then saturates at TPmax, with small multiplicative
// noise.
func syntheticMainSequence(rng *simnet.RNG, n int, knee, slope, noise float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		load := rng.Float64() * knee * 3
		tp := slope * load
		if load > knee {
			tp = slope * knee
		}
		tp *= 1 + (rng.Float64()*2-1)*noise
		pts[i] = Point{Load: load, TP: tp}
	}
	return pts
}

func TestEstimateNStarFindsKnee(t *testing.T) {
	rng := simnet.NewRNG(1)
	pts := syntheticMainSequence(rng, 3000, 10, 100, 0.03)
	res, err := EstimateNStar(pts, NStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("knee not detected as saturation")
	}
	if res.NStar < 8 || res.NStar > 13 {
		t.Errorf("N* = %.2f, want ~10", res.NStar)
	}
	if math.Abs(res.TPMax-1000)/1000 > 0.08 {
		t.Errorf("TPMax = %.0f, want ~1000", res.TPMax)
	}
}

func TestEstimateNStarUnsaturatedServer(t *testing.T) {
	// Pure linear region: no knee in the data.
	rng := simnet.NewRNG(2)
	pts := make([]Point, 2000)
	for i := range pts {
		load := rng.Float64() * 5
		pts[i] = Point{Load: load, TP: 100 * load * (1 + (rng.Float64()*2-1)*0.02)}
	}
	res, err := EstimateNStar(pts, NStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Error("linear curve misreported as saturated")
	}
	// N* reported as the highest observed load (a lower bound).
	if res.NStar < 4.5 {
		t.Errorf("unsaturated N* = %.2f, want near max load 5", res.NStar)
	}
}

func TestEstimateNStarHardKneeSharp(t *testing.T) {
	// Deterministic points: exact knee at 20.
	var pts []Point
	for load := 1.0; load <= 60; load += 0.25 {
		tp := 50 * load
		if load > 20 {
			tp = 1000
		}
		pts = append(pts, Point{Load: load, TP: tp})
	}
	res, err := EstimateNStar(pts, NStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || res.NStar < 17 || res.NStar > 24 {
		t.Errorf("N* = %.2f (saturated=%v), want ~20", res.NStar, res.Saturated)
	}
}

func TestEstimateNStarNoPoints(t *testing.T) {
	if _, err := EstimateNStar(nil, NStarOptions{}); err != ErrNoPoints {
		t.Errorf("err = %v, want ErrNoPoints", err)
	}
	// All-zero loads are unusable too.
	pts := []Point{{Load: 0, TP: 5}, {Load: 0, TP: 7}}
	if _, err := EstimateNStar(pts, NStarOptions{}); err != ErrNoPoints {
		t.Errorf("err = %v, want ErrNoPoints", err)
	}
}

func TestEstimateNStarSingleLoadLevel(t *testing.T) {
	pts := []Point{{Load: 5, TP: 100}, {Load: 5, TP: 110}, {Load: 5, TP: 90}}
	res, err := EstimateNStar(pts, NStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NStar != 5 {
		t.Errorf("N* = %v, want 5 (only observed level)", res.NStar)
	}
	if !almostEq(res.TPMax, 100) {
		t.Errorf("TPMax = %v, want 100", res.TPMax)
	}
}

func TestEstimateNStarIgnoresDegeneratePoints(t *testing.T) {
	pts := []Point{
		{Load: math.NaN(), TP: 5},
		{Load: 2, TP: math.Inf(1)},
		{Load: 1, TP: 100}, {Load: 1, TP: 100},
		{Load: 2, TP: 200}, {Load: 2, TP: 200},
		{Load: 3, TP: 290}, {Load: 3, TP: 290},
	}
	res, err := EstimateNStar(pts, NStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TPMax < 280 {
		t.Errorf("TPMax = %v; degenerate points may have poisoned the curve", res.TPMax)
	}
}

func TestBinCurveMergesSparseBins(t *testing.T) {
	// 4 samples over a wide load range with k=100: nearly every bin is
	// empty; merging must still produce a usable curve.
	pts := []Point{
		{Load: 1, TP: 10}, {Load: 1.1, TP: 11},
		{Load: 50, TP: 500}, {Load: 50.5, TP: 505},
	}
	curve, err := binCurve(pts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 {
		t.Fatalf("curve bins = %d, want 2", len(curve))
	}
	if curve[0].N != 2 || curve[1].N != 2 {
		t.Errorf("bin sizes = %d/%d, want 2/2", curve[0].N, curve[1].N)
	}
}

func TestBinCurveTrailingRemainderFolded(t *testing.T) {
	pts := []Point{
		{Load: 1, TP: 10}, {Load: 1.05, TP: 10},
		{Load: 99, TP: 500}, // lone sample in the last region
	}
	curve, err := binCurve(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, b := range curve {
		total += b.N
	}
	if total != 3 {
		t.Errorf("binned samples = %d, want 3 (remainder folded)", total)
	}
}

func TestCorrelatePoints(t *testing.T) {
	pts, err := CorrelatePoints([]float64{1, 2}, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[1] != (Point{Load: 2, TP: 20}) {
		t.Errorf("points = %v", pts)
	}
	if _, err := CorrelatePoints([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("want error for length mismatch")
	}
}

// Property: N* is always within the observed load range and TPMax within
// the observed throughput range (after binning).
func TestEstimateNStarBoundsProperty(t *testing.T) {
	rng := simnet.NewRNG(7)
	f := func(seed int64) bool {
		r := simnet.NewRNG(seed)
		knee := 2 + r.Float64()*50
		pts := syntheticMainSequence(rng, 500, knee, 10+r.Float64()*200, 0.05)
		res, err := EstimateNStar(pts, NStarOptions{})
		if err != nil {
			return false
		}
		var maxLoad, maxTP float64
		for _, p := range pts {
			if p.Load > maxLoad {
				maxLoad = p.Load
			}
			if p.TP > maxTP {
				maxTP = p.TP
			}
		}
		return res.NStar > 0 && res.NStar <= maxLoad*1.01 && res.TPMax <= maxTP*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Ablation guard: a higher tolerance fraction (more permissive) should
// never report a larger N* than a lower one on the same data.
func TestTolFractionMonotonicity(t *testing.T) {
	rng := simnet.NewRNG(21)
	pts := syntheticMainSequence(rng, 3000, 15, 80, 0.04)
	strict, err := EstimateNStar(pts, NStarOptions{TolFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := EstimateNStar(pts, NStarOptions{TolFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if loose.NStar > strict.NStar+1e-9 {
		t.Errorf("tol=0.5 N*=%.2f > tol=0.1 N*=%.2f; should trigger earlier or equal",
			loose.NStar, strict.NStar)
	}
}
