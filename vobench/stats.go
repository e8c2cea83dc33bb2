package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method): the cut points at positions (n+1)*i/4.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailOrMedian is the q-quantile of v when at least ten samples lie
// beyond it, and the median otherwise (a tail estimated from fewer
// samples is noise).
func tailOrMedian(v []float64, q float64) float64 {
	// The tolerance keeps 100 samples at q = 0.9 a tail: 1-0.9 is a hair
	// under 0.1 in binary.
	if float64(len(v))*(1-q) < 10-1e-9 {
		return median(v)
	}
	s := sorted(v)
	// Nearest-rank quantile.
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
