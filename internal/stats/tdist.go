package stats

import (
	"errors"
	"math"
)

// This file implements the Student t distribution used by the congestion
// point estimator (§III-C, Eq. 2). The paper needs t(0.95, n0-1): the
// coefficient for a 90 percent (two-sided) confidence interval. We compute
// it exactly via the regularized incomplete beta function rather than a
// lookup table, so any degrees of freedom work.

// logGamma returns ln Γ(x) for x > 0 (Lanczos approximation).
func logGamma(x float64) float64 {
	// Lanczos coefficients (g=7, n=9).
	coeffs := [...]float64{
		0.99999999999980993,
		676.5203681218851,
		-1259.1392167224028,
		771.32342877765313,
		-176.61502916214059,
		12.507343278686905,
		-0.13857109526572012,
		9.9843695780195716e-6,
		1.5056327351493116e-7,
	}
	if x < 0.5 {
		// Reflection formula.
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - logGamma(1-x)
	}
	x--
	a := coeffs[0]
	t := x + 7.5
	for i := 1; i < len(coeffs); i++ {
		a += coeffs[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// betaContinuedFraction evaluates the continued fraction for the
// regularized incomplete beta function (Lentz's method).
func betaContinuedFraction(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpMin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpMin {
		d = fpMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		mf := float64(m)
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// RegIncompleteBeta returns I_x(a, b), the regularized incomplete beta
// function, for a,b > 0 and x in [0,1].
func RegIncompleteBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := logGamma(a+b) - logGamma(a) - logGamma(b) +
		a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaContinuedFraction(a, b, x) / a
	}
	return 1 - front*betaContinuedFraction(b, a, 1-x)/b
}

// TCDF returns P(T ≤ t) for a Student t variable with df degrees of
// freedom.
func TCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncompleteBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TQuantile returns the value t such that P(T ≤ t) = p for a Student t
// variable with df degrees of freedom. It returns an error for p outside
// (0,1) or non-positive df. This is the t(p, df) coefficient used in the
// paper's Eq. 2.
func TQuantile(p, df float64) (float64, error) {
	if df <= 0 {
		return 0, errors.New("stats: degrees of freedom must be positive")
	}
	if p <= 0 || p >= 1 {
		return 0, errors.New("stats: quantile probability must be in (0,1)")
	}
	if p == 0.5 {
		return 0, nil
	}
	// Bisection on the CDF: monotone, so this is robust. Bracket grows
	// geometrically until it contains the quantile.
	lo, hi := -1.0, 1.0
	for TCDF(lo, df) > p {
		lo *= 2
		if lo < -1e10 {
			break
		}
	}
	for TCDF(hi, df) < p {
		hi *= 2
		if hi > 1e10 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*math.Max(1, math.Abs(hi)) {
			break
		}
	}
	return (lo + hi) / 2, nil
}
