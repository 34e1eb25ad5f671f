package stats

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bucket histogram. The paper's Fig 2c plots the
// end-to-end response-time distribution on buckets of 0.1s up to >4s with a
// log-scale count axis; Buckets and NewResponseTimeHistogram build exactly
// that shape.
type Histogram struct {
	// edges[i] is the inclusive lower bound of bucket i; bucket i covers
	// [edges[i], edges[i+1]). The final bucket is open-ended.
	edges  []float64
	counts []int64
	total  int64
}

// NewHistogram builds a histogram from ascending bucket lower edges. The
// last bucket is open-ended. At least one edge is required and edges must
// be strictly ascending.
func NewHistogram(edges []float64) (*Histogram, error) {
	if len(edges) == 0 {
		return nil, errors.New("stats: histogram needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("stats: histogram edges not ascending at %d", i)
		}
	}
	cp := make([]float64, len(edges))
	copy(cp, edges)
	return &Histogram{edges: cp, counts: make([]int64, len(edges))}, nil
}

// NewResponseTimeHistogram returns the Fig 2c bucket layout: response time
// in seconds with bucket edges every 0.1s from 0 to 4s, plus an open ">4s"
// bucket.
func NewResponseTimeHistogram() *Histogram {
	edges := make([]float64, 0, 41)
	for i := 0; i <= 40; i++ {
		edges = append(edges, float64(i)*0.1)
	}
	h, err := NewHistogram(edges)
	if err != nil {
		// Static edges are valid by construction.
		panic(err)
	}
	return h
}

// Observe adds one sample. Values below the first edge are clamped into the
// first bucket.
func (h *Histogram) Observe(v float64) {
	idx := h.bucketFor(v)
	h.counts[idx]++
	h.total++
}

func (h *Histogram) bucketFor(v float64) int {
	// Binary search for the last edge ≤ v.
	lo, hi := 0, len(h.edges)-1
	if v < h.edges[0] {
		return 0
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if h.edges[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Total returns the number of observed samples.
func (h *Histogram) Total() int64 {
	return h.total
}

// Buckets returns copies of the bucket edges and counts.
func (h *Histogram) Buckets() (edges []float64, counts []int64) {
	edges = make([]float64, len(h.edges))
	counts = make([]int64, len(h.counts))
	copy(edges, h.edges)
	copy(counts, h.counts)
	return edges, counts
}

// Count returns the count in the bucket whose lower edge is edges[i].
func (h *Histogram) Count(i int) int64 {
	if i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i]
}

// Modes returns the indices of local maxima in the count profile whose
// count is at least minCount, separated by a dip of at least dipRatio
// (e.g. 0.5 requires counts to fall to half the smaller neighbouring peak
// between two reported modes). It is used to verify the bi-modal shape of
// Fig 2c.
func (h *Histogram) Modes(minCount int64, dipRatio float64) []int {
	var peaks []int
	n := len(h.counts)
	for i := 0; i < n; i++ {
		c := h.counts[i]
		if c < minCount {
			continue
		}
		left := int64(-1)
		if i > 0 {
			left = h.counts[i-1]
		}
		right := int64(-1)
		if i < n-1 {
			right = h.counts[i+1]
		}
		if c >= left && c >= right && (c > left || c > right) {
			peaks = append(peaks, i)
		}
	}
	// Merge peaks not separated by a sufficient dip.
	var modes []int
	for _, p := range peaks {
		if len(modes) == 0 {
			modes = append(modes, p)
			continue
		}
		prev := modes[len(modes)-1]
		minBetween := h.counts[p]
		for j := prev + 1; j < p; j++ {
			if h.counts[j] < minBetween {
				minBetween = h.counts[j]
			}
		}
		smallerPeak := h.counts[prev]
		if h.counts[p] < smallerPeak {
			smallerPeak = h.counts[p]
		}
		if float64(minBetween) <= dipRatio*float64(smallerPeak) {
			modes = append(modes, p)
		} else if h.counts[p] > h.counts[prev] {
			modes[len(modes)-1] = p
		}
	}
	return modes
}

// String renders the histogram as an ASCII table with log-scaled bars,
// mirroring the log-count axis of Fig 2c.
func (h *Histogram) String() string {
	var b strings.Builder
	maxLog := 0.0
	for _, c := range h.counts {
		if c > 0 {
			l := math.Log10(float64(c) + 1)
			if l > maxLog {
				maxLog = l
			}
		}
	}
	for i, c := range h.counts {
		label := fmt.Sprintf("%5.1f", h.edges[i])
		if i == len(h.counts)-1 {
			label = fmt.Sprintf(">%4.1f", h.edges[i])
		}
		bar := ""
		if c > 0 && maxLog > 0 {
			width := int(math.Round(math.Log10(float64(c)+1) / maxLog * 50))
			bar = strings.Repeat("#", width)
		}
		fmt.Fprintf(&b, "%s | %8d %s\n", label, c, bar)
	}
	return b.String()
}
