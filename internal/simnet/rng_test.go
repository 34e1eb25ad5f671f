package simnet

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds matched %d/100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	a := parent.Split("workload")
	b := parent.Split("noise")
	// Streams should diverge.
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("split streams matched %d/100 draws", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	a := NewRNG(7).Split("x")
	b := NewRNG(7).Split("x")
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same split name produced different streams")
		}
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(3)
	const n = 200000
	mean := 10 * Millisecond
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(g.Exp(mean))
	}
	got := sum / n
	want := float64(mean)
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("Exp mean = %.1f, want ~%.1f", got, want)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	g := NewRNG(1)
	if g.Exp(0) != 0 || g.Exp(-Second) != 0 {
		t.Error("Exp with non-positive mean should be 0")
	}
}

func TestLogNormalMedianNearOne(t *testing.T) {
	g := NewRNG(5)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = g.LogNormal(0.3)
	}
	// Median of lognormal(0, sigma) is 1.
	below := 0
	for _, v := range vals {
		if v < 1 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("fraction below 1 = %.3f, want ~0.5", frac)
	}
	if g.LogNormal(0) != 1 {
		t.Error("LogNormal(0) should be exactly 1")
	}
}

func TestPickWeights(t *testing.T) {
	g := NewRNG(11)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight class picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight ratio = %.2f, want ~3", ratio)
	}
}

func TestPickDegenerate(t *testing.T) {
	g := NewRNG(1)
	if got := g.Pick([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero weights -> %d, want 0", got)
	}
	if got := g.Pick([]float64{-1, -2}); got != 0 {
		t.Errorf("negative weights -> %d, want 0", got)
	}
}

// Property: Pick always returns a valid index with positive weight when one
// exists.
func TestPickProperty(t *testing.T) {
	g := NewRNG(99)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		anyPositive := false
		for i, r := range raw {
			weights[i] = float64(r)
			if r > 0 {
				anyPositive = true
			}
		}
		idx := g.Pick(weights)
		if idx < 0 || idx >= len(weights) {
			return false
		}
		if anyPositive && weights[idx] <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIntn(t *testing.T) {
	g := NewRNG(19)
	for i := 0; i < 1000; i++ {
		v := g.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}
