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

// nearCap is how many values SelectNear keeps between its guess and rank
// k before it gives up and runs Select.
const nearCap = 16

// SelectNear returns the value Select(xs, k) returns, starting from guess,
// a value expected at or near rank k — typically the answer for a slightly
// different xs. One pass counts the values below and equal to guess; if
// guess still holds rank k, it is the answer. Otherwise a second pass keeps
// the values between guess and rank k in a fixed buffer of nearCap. When
// more than that lie between them, SelectNear is Select, and only then is
// xs reordered. xs and guess must hold no NaN; 0 ≤ k < len(xs).
func SelectNear(xs []float64, k int, guess float64) float64 {
	below, equal := 0, 0
	for _, x := range xs {
		below += b2i(x < guess)
		equal += b2i(x == guess)
	}
	// The answer is the m-th largest value below guess, or with sign -1
	// the m-th smallest above it: the m-th largest sign·x below sign·guess.
	sign, m := 1.0, below-k
	switch {
	case k < below:
	case k < below+equal:
		return guess
	default:
		sign, m = -1, k-below-equal+1
	}
	if m > nearCap {
		return Select(xs, k)
	}
	// The m largest sign·x below sign·guess so far, descending; a -Inf left
	// in place is right, as there are at least m values below guess.
	var buf [nearCap]float64
	for i := range m {
		buf[i] = math.Inf(-1)
	}
	g := sign * guess
	for _, x := range xs {
		if x *= sign; x < g && x > buf[m-1] {
			i := m - 1
			for ; i > 0 && buf[i-1] < x; i-- {
				buf[i] = buf[i-1]
			}
			buf[i] = x
		}
	}
	return sign * buf[m-1]
}

// b2i compiles to a flag-set, not a branch, so the counting pass does not
// mispredict on samples that straddle the guess.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
