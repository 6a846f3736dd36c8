package main

import (
	"math"
	"sort"
)

// obs collects per-layer observations by metric name: one value per
// measured operation or probe repetition, aggregated when the run ends.
type obs map[string][]float64

func (o obs) add(name string, v float64) { o[name] = append(o[name], v) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile reports the p-th percentile (nearest rank) of xs and how many
// samples lie strictly beyond that rank.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the number is a few outliers, not a percentile.
const minBeyond = 10

// tail reports the p-th percentile only when at least minBeyond samples
// lie beyond it; ok is false otherwise.
func tail(xs []float64, p float64) (value float64, beyond int, ok bool) {
	value, beyond = percentile(xs, p)
	return value, beyond, beyond >= minBeyond
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method), which is
// what the repeatability criterion is stated in. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median (0 with
// fewer than two samples: one run has no spread to report).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
