package stats

import (
	"math"
	"testing"
)

func TestLogGammaKnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{4, math.Log(6)},
		{5, math.Log(24)},
		{0.5, math.Log(math.Sqrt(math.Pi))},
	}
	for _, tc := range cases {
		if got := logGamma(tc.x); !almostEqual(got, tc.want, 1e-10) {
			t.Errorf("logGamma(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestRegIncompleteBetaBounds(t *testing.T) {
	if got := RegIncompleteBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v, want 0", got)
	}
	if got := RegIncompleteBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v, want 1", got)
	}
	// I_x(1,1) = x (uniform distribution CDF).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := RegIncompleteBeta(1, 1, x); !almostEqual(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	got := RegIncompleteBeta(2.5, 4.5, 0.3)
	sym := 1 - RegIncompleteBeta(4.5, 2.5, 0.7)
	if !almostEqual(got, sym, 1e-10) {
		t.Errorf("symmetry violated: %v vs %v", got, sym)
	}
}

func TestTCDFSymmetry(t *testing.T) {
	for _, df := range []float64{1, 2, 5, 10, 30} {
		if got := TCDF(0, df); !almostEqual(got, 0.5, 1e-12) {
			t.Errorf("TCDF(0, %v) = %v, want 0.5", df, got)
		}
		for _, x := range []float64{0.5, 1, 2, 3} {
			p := TCDF(x, df)
			q := TCDF(-x, df)
			if !almostEqual(p+q, 1, 1e-10) {
				t.Errorf("TCDF symmetry df=%v x=%v: %v + %v != 1", df, x, p, q)
			}
		}
	}
	if !math.IsNaN(TCDF(1, 0)) {
		t.Error("TCDF with df=0 should be NaN")
	}
}

// Reference values from standard t tables.
func TestTQuantileReferenceValues(t *testing.T) {
	cases := []struct {
		p, df, want float64
	}{
		{0.95, 1, 6.3138},
		{0.95, 2, 2.9200},
		{0.95, 5, 2.0150},
		{0.95, 10, 1.8125},
		{0.95, 30, 1.6973},
		{0.95, 100, 1.6602},
		{0.975, 10, 2.2281},
		{0.99, 5, 3.3649},
		{0.90, 20, 1.3253},
	}
	for _, tc := range cases {
		got, err := TQuantile(tc.p, tc.df)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tc.want, 5e-4) {
			t.Errorf("TQuantile(%v, %v) = %v, want %v", tc.p, tc.df, got, tc.want)
		}
	}
}

func TestTQuantileMedianAndSymmetry(t *testing.T) {
	got, err := TQuantile(0.5, 7)
	if err != nil || got != 0 {
		t.Errorf("TQuantile(0.5) = %v, %v; want 0", got, err)
	}
	hi, err := TQuantile(0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := TQuantile(0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(hi, -lo, 1e-8) {
		t.Errorf("quantile symmetry violated: %v vs %v", hi, lo)
	}
}

func TestTQuantileErrors(t *testing.T) {
	if _, err := TQuantile(0, 5); err == nil {
		t.Error("want error for p=0")
	}
	if _, err := TQuantile(1, 5); err == nil {
		t.Error("want error for p=1")
	}
	if _, err := TQuantile(0.5, 0); err == nil {
		t.Error("want error for df=0")
	}
}

func TestTQuantileRoundTrip(t *testing.T) {
	for _, df := range []float64{3, 8, 25} {
		for _, p := range []float64{0.05, 0.2, 0.6, 0.9, 0.99} {
			q, err := TQuantile(p, df)
			if err != nil {
				t.Fatal(err)
			}
			back := TCDF(q, df)
			if !almostEqual(back, p, 1e-8) {
				t.Errorf("round trip df=%v p=%v: got %v", df, p, back)
			}
		}
	}
}

func TestT95(t *testing.T) {
	t95 := func(df float64) float64 {
		q, err := TQuantile(0.95, df)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	if got := t95(10); !almostEqual(got, 1.8125, 5e-4) {
		t.Errorf("t(0.95, 10) = %v, want 1.8125", got)
	}
	// Large df converges to the normal quantile.
	if got := t95(100000); !almostEqual(got, 1.6449, 1e-3) {
		t.Errorf("t(0.95, 1e5) = %v, want ~1.6449", got)
	}
}

func TestT95Monotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 50; df++ {
		q, err := TQuantile(0.95, float64(df))
		if err != nil {
			t.Fatal(err)
		}
		if q > prev+1e-9 {
			t.Fatalf("T95 not non-increasing at df=%d: %v > %v", df, q, prev)
		}
		prev = q
	}
}
