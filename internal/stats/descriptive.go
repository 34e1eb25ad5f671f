// Package stats is the statistical substrate for the transient-bottleneck
// detection method: descriptive statistics, Student t quantiles (used by
// the intervention analysis of §III-C), histograms for response-time
// distributions (Fig 2c) and correlation.
//
// Everything is implemented from scratch on the standard library, per the
// repository's stdlib-only constraint.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance (divide by n) of xs, or 0 for
// fewer than one sample. The paper's Eq. 2 uses the population form
// s.d.{δ} = sqrt(Σ(δi-δ̄)²) without the 1/(n-1); see SDSumSquares.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// SampleVariance returns the unbiased sample variance (divide by n-1), or 0
// for fewer than two samples.
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// SampleStdDev returns the unbiased sample standard deviation.
func SampleStdDev(xs []float64) float64 {
	return math.Sqrt(SampleVariance(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. xs does not need to be sorted and
// is not modified. The lower rank is found by Select on a copy and the
// upper one as the minimum of what Select leaves above it; NaNs rank
// first, as sort.Float64s orders them.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	p = min(max(p, 0), 100)
	buf := make([]float64, len(xs))
	nan := 0
	for i, x := range xs {
		buf[i] = x
		if math.IsNaN(x) {
			buf[i], buf[nan] = buf[nan], x
			nan++
		}
	}
	rank := p / 100 * float64(len(buf)-1)
	lo := int(math.Floor(rank))
	if lo < nan {
		return math.NaN(), nil
	}
	v := Select(buf[nan:], lo-nan)
	frac := rank - float64(lo)
	if frac == 0 {
		return v, nil
	}
	hi := slices.Min(buf[lo+1:])
	return v*(1-frac) + hi*frac, nil
}

// Select reorders xs so that xs[k] holds the value sort.Float64s would
// put there, with nothing greater before it and nothing smaller after it,
// and returns that value. It is Hoare's FIND with the current xs[k] as
// the pivot, falling back to a sort of the remaining range if pivots keep
// missing: expected O(len(xs)), O(len(xs)·log len(xs)) at worst. xs must
// hold no NaN; 0 ≤ k < len(xs).
func Select(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			break
		}
		pivot := xs[k]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo:i] ≤ pivot ≤ xs[j+1:hi+1], and j < i.
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
	return xs[k]
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) {
	return Percentile(xs, 50)
}

// FractionAbove reports the fraction of samples strictly greater than
// threshold. Used for the paper's "% of requests with response time over
// 2s" metric (Fig 2b).
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	count := 0
	for _, x := range xs {
		if x > threshold {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// PearsonR returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either series is constant or the lengths differ.
func PearsonR(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
