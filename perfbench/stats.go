package main

import (
	"math"
	"sort"

	"raidii/internal/sim"
)

// percentile returns the nearest-rank p-th percentile of the samples.
func percentile(samples []sim.Duration, p float64) sim.Duration {
	s := append([]sim.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), p)]
}

// rank is the 0-based index of the nearest-rank p-th percentile of n
// sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps p*n/100 that is whole in exact arithmetic from
	// rounding up a rank (99.9% of 20000 is 19980, not 19980.000000000004).
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailLadder lists the percentiles a tail may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile that leaves at least ten
// samples beyond it, and reports how many lie beyond.
func tailPercentile(n int) (pct float64, beyond int) {
	for _, p := range tailLadder {
		if b := n - 1 - rank(n, p); b >= 10 {
			return p, b
		}
	}
	p := tailLadder[len(tailLadder)-1]
	return p, n - 1 - rank(n, p)
}

// median of host measurements (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
