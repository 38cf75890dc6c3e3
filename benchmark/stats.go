package main

import (
	"hash/fnv"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): p99 therefore needs 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted,
// and whether at least minBeyond samples lie beyond it; a caller that
// reports the figure must check ok.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// sortedCopy returns vals sorted ascending without touching vals.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the "exclusive" method), so
// the spreads printed here are the ones the driver computes. Fewer than
// two values have no spread: all three cut points are the value itself.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vals []float64) float64 {
	_, med, _ := quartiles(vals)
	return med
}

// spread is the interquartile distance as a share of the median, the
// figure the bounds in BENCHMARK.json are compared with.
func spread(vals []float64) float64 {
	q1, med, q3 := quartiles(vals)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// mixSeed derives the input seed of one lap from the run seed, the
// workload name and the lap index (splitmix64 finaliser), so laps and
// workloads never share an input and the same arguments always give
// the same one.
func mixSeed(seed int64, workload string, lap int) int64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64() ^ (uint64(lap)+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1) // non-negative: some generators take rand.NewSource seeds
}
