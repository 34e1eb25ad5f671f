package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"simple", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.in); got != tc.want {
				t.Errorf("Mean(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := SampleVariance(xs); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("SampleVariance = %v, want 2.5", got)
	}
	if got := SampleVariance([]float64{3}); got != 0 {
		t.Errorf("SampleVariance(single) = %v, want 0", got)
	}
	if got := SampleStdDev(xs); !almostEqual(got, math.Sqrt(2.5), 1e-12) {
		t.Errorf("SampleStdDev = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{100, 10},
		{50, 5.5},
		{25, 3.25},
		{90, 9.1},
	}
	for _, tc := range cases {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tc.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Error("want ErrEmpty for empty percentile")
	}
}

func TestPercentileClamping(t *testing.T) {
	xs := []float64{1, 2, 3}
	got, err := Percentile(xs, -5)
	if err != nil || got != 1 {
		t.Errorf("Percentile(-5) = %v, %v; want 1", got, err)
	}
	got, err = Percentile(xs, 150)
	if err != nil || got != 3 {
		t.Errorf("Percentile(150) = %v, %v; want 3", got, err)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

// TestSelectMatchesSort is Select's property test against sort.Float64s:
// random lengths 1–600, samples from small integer ranges so duplicates
// are heavy, a sprinkling of ±Inf, inputs also pre-sorted either way, and
// every k. Percentile over the same samples, with NaNs added in some
// trials, must equal the sort-and-interpolate definition bit for bit.
func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(600)
		span := 1 + rng.Intn(1<<rng.Intn(12))
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(40) {
			case 0:
				xs[i] = math.Inf(1)
			case 1:
				xs[i] = math.Inf(-1)
			default:
				xs[i] = float64(rng.Intn(span))
			}
		}
		switch trial % 3 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		for k := range xs {
			buf := slices.Clone(xs)
			if got := Select(buf, k); got != sorted[k] {
				t.Fatalf("trial %d: Select(n=%d, k=%d) = %v, want %v", trial, n, k, got, sorted[k])
			}
			for i, x := range buf {
				if (i < k && x > sorted[k]) || (i > k && x < sorted[k]) {
					t.Fatalf("trial %d: Select(n=%d, k=%d) left %v at %d", trial, n, k, x, i)
				}
			}
		}

		if trial%4 == 0 {
			for i := rng.Intn(3); i > 0; i-- {
				xs[rng.Intn(n)] = math.NaN()
			}
			sorted = slices.Clone(xs)
			sort.Float64s(sorted)
		}
		for _, p := range []float64{0, 10, 50, 95, 100, 100 * rng.Float64()} {
			rank := p / 100 * float64(n-1)
			lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
			want := sorted[lo]
			if lo != hi {
				want = sorted[lo]*(1-(rank-float64(lo))) + sorted[hi]*(rank-float64(lo))
			}
			got, err := Percentile(xs, p)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d: Percentile(n=%d, p=%v) = %v, %v; want %v", trial, n, p, got, err, want)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	got, err := Median([]float64{5, 1, 9})
	if err != nil || got != 5 {
		t.Errorf("Median = %v, %v; want 5", got, err)
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{0.5, 1.5, 2.5, 3.5}
	if got := FractionAbove(xs, 2.0); got != 0.5 {
		t.Errorf("FractionAbove = %v, want 0.5", got)
	}
	if got := FractionAbove(xs, 3.5); got != 0 {
		t.Errorf("strictly-above: FractionAbove(3.5) = %v, want 0", got)
	}
	if got := FractionAbove(nil, 1); got != 0 {
		t.Errorf("FractionAbove(nil) = %v, want 0", got)
	}
}

func TestPearsonR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := PearsonR(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect positive r = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := PearsonR(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("perfect negative r = %v, want -1", got)
	}
	if got := PearsonR(xs, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("constant series r = %v, want 0", got)
	}
	if got := PearsonR(xs, []float64{1, 2}); got != 0 {
		t.Errorf("length mismatch r = %v, want 0", got)
	}
}

// Property: variance is non-negative and mean lies within [min, max].
func TestDescriptiveProperties(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		if Variance(xs) < 0 {
			return false
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Pearson r is always in [-1, 1].
func TestPearsonBoundsProperty(t *testing.T) {
	f := func(ax, ay []int8) bool {
		n := len(ax)
		if len(ay) < n {
			n = len(ay)
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = float64(ax[i])
			ys[i] = float64(ay[i])
		}
		r := PearsonR(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
