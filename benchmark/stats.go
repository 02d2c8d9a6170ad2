package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the highest of p75, p90 and p99 that leaves at least
// ten of n samples beyond it (p75 when even that does not).
func tailPercentile(n int) float64 {
	for _, pct := range []int{99, 90} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0.75
}

// calibrate times a fixed multiply-add pass over 32 MB, five times, and
// returns the median in ms. It measures the machine, not the repository:
// the sandbox has speed modes a quarter apart that last for minutes, and a
// run's calibration says which one it met.
func calibrate() float64 {
	const n = 1 << 21
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = float64(i), float64(n-i)
	}
	var reps []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for pass := 0; pass < 4; pass++ {
			for i := range a {
				a[i] = a[i]*0.999 + b[(i*7)&(n-1)]
			}
		}
		reps = append(reps, ms(time.Since(t0)))
	}
	if a[n/2] == 0 {
		panic("unreachable: keeps the loop alive")
	}
	return median(reps)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// overlap is |a ∩ b| / len(b): the share of the reference list b that the
// answered list a contains.
func overlap(a, b []int) float64 {
	if len(b) == 0 {
		return 1
	}
	in := make(map[int]bool, len(b))
	for _, v := range b {
		in[v] = true
	}
	hit := 0
	for _, v := range a {
		if in[v] {
			hit++
		}
	}
	return float64(hit) / float64(len(b))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// rankedVertices projects a ranked result list onto its vertex ids.
func rankedVertices[T any](rs []T, vertex func(T) int) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = vertex(r)
	}
	return out
}
