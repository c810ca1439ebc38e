package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p90 needs at least 100 samples, a median at least 20.
const minBeyond = 10

// quantile is one percentile of raw per-op samples, with the evidence
// behind it.
type quantile struct {
	Value  float64 // milliseconds (or the sample unit)
	N      int     // samples the percentile was taken over
	Beyond int     // samples strictly above its rank
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples.
// It refuses when fewer than minBeyond samples lie beyond the rank, so a
// reported tail is always backed by real observations, never a histogram
// bucket edge.
func percentile(samples []float64, q float64) (quantile, error) {
	n := len(samples)
	if n == 0 {
		return quantile{}, fmt.Errorf("no samples")
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if beyond < minBeyond {
		return quantile{}, fmt.Errorf("p%g over %d samples has %d beyond it, need %d",
			100*q, n, beyond, minBeyond)
	}
	return quantile{Value: sorted[rank-1], N: n, Beyond: beyond}, nil
}

// median is percentile(samples, 0.5) for callers that hold durations.
func medianMS(ds []time.Duration) (quantile, error) {
	return percentile(msOf(ds), 0.5)
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// splitmix64 is the op-sequence hash: op i of a run is a pure function of
// (seed, i, salt), so the same seed yields the same sequence however many
// ops a run reaches and whichever client executes them.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(seed, i int64, salt uint64) uint64 {
	return splitmix64(splitmix64(uint64(seed)^salt*0x2545f4914f6cdd1d) ^ uint64(i))
}

// zipf picks an index in [0, n) with probability proportional to
// 1/(rank+1), from the uniform hash h.
func zipf(h uint64, n int) int {
	var total float64
	for r := 0; r < n; r++ {
		total += 1 / float64(r+1)
	}
	x := float64(h>>11) / float64(1<<53) * total
	for r := 0; r < n; r++ {
		x -= 1 / float64(r+1)
		if x < 0 {
			return r
		}
	}
	return n - 1
}
