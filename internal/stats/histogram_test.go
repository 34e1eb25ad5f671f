package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("want error for no edges")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Error("want error for non-ascending edges")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Error("want error for descending edges")
	}
}

func TestHistogramObserve(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.5)  // bucket 0
	h.Observe(1.0)  // bucket 1 (inclusive lower edge)
	h.Observe(1.99) // bucket 1
	h.Observe(2.0)  // bucket 2
	h.Observe(99)   // bucket 2 (open-ended)
	h.Observe(-1)   // clamped to bucket 0

	wantCounts := []int64{2, 2, 2}
	_, counts := h.Buckets()
	for i, w := range wantCounts {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d, want 6", h.Total())
	}
}

func TestHistogramCountAccessor(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.5)
	if h.Count(0) != 1 || h.Count(1) != 0 {
		t.Error("Count accessor wrong")
	}
	if h.Count(-1) != 0 || h.Count(5) != 0 {
		t.Error("out-of-range Count should be 0")
	}
}

func TestResponseTimeHistogramLayout(t *testing.T) {
	h := NewResponseTimeHistogram()
	edges, _ := h.Buckets()
	if len(edges) != 41 {
		t.Fatalf("%d buckets, want 41", len(edges))
	}
	if edges[0] != 0 || !almostEqual(edges[40], 4.0, 1e-12) {
		t.Errorf("edge layout wrong: first=%v last=%v", edges[0], edges[40])
	}
	h.Observe(5.5)
	if h.Count(40) != 1 {
		t.Error(">4s sample not in open bucket")
	}
	h.Observe(0.05)
	if h.Count(0) != 1 {
		t.Error("0.05s sample not in first bucket")
	}
}

func TestHistogramModesBimodal(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	// Construct counts 100, 50, 5, 2, 40, 80, 1: peaks at bucket 0 and 5.
	counts := []int64{100, 50, 5, 2, 40, 80, 1}
	for i, c := range counts {
		for j := int64(0); j < c; j++ {
			h.Observe(float64(i) + 0.5)
		}
	}
	modes := h.Modes(10, 0.5)
	if len(modes) != 2 || modes[0] != 0 || modes[1] != 5 {
		t.Errorf("Modes = %v, want [0 5]", modes)
	}
}

func TestHistogramModesUnimodal(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := []int64{10, 80, 100, 70, 20}
	for i, c := range counts {
		for j := int64(0); j < c; j++ {
			h.Observe(float64(i) + 0.5)
		}
	}
	modes := h.Modes(5, 0.5)
	if len(modes) != 1 || modes[0] != 2 {
		t.Errorf("Modes = %v, want [2]", modes)
	}
}

func TestHistogramString(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.5)
	h.Observe(1.5)
	s := h.String()
	if !strings.Contains(s, "|") || !strings.Contains(s, "#") {
		t.Errorf("String output missing bars: %q", s)
	}
	if !strings.Contains(s, ">") {
		t.Errorf("String output missing open-bucket marker: %q", s)
	}
}

// Property: total count equals sum of bucket counts, and bucketFor always
// returns a valid index.
func TestHistogramTotalProperty(t *testing.T) {
	f := func(raw []int16) bool {
		h, err := NewHistogram([]float64{-100, -10, 0, 10, 100})
		if err != nil {
			return false
		}
		for _, r := range raw {
			h.Observe(float64(r))
		}
		_, counts := h.Buckets()
		var sum int64
		for _, c := range counts {
			sum += c
		}
		return sum == h.Total() && h.Total() == int64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a sample v >= edges[i] and < edges[i+1] lands in bucket i.
func TestHistogramBucketBoundariesProperty(t *testing.T) {
	edges := []float64{0, 5, 10, 20, 50}
	f := func(raw uint8) bool {
		h, err := NewHistogram(edges)
		if err != nil {
			return false
		}
		v := float64(raw % 60)
		h.Observe(v)
		want := 0
		for i := len(edges) - 1; i >= 0; i-- {
			if v >= edges[i] {
				want = i
				break
			}
		}
		return h.Count(want) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
