package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
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

// tailPercentile applies the reporting rule for latency tails: report
// the target percentile when at least 10 samples lie beyond it, or else
// the highest lower candidate (99, 95, 90, 75, 50) that has 10 beyond
// it, so a tail is never read off a handful of outliers. It returns the
// percentile used, its nearest-rank value in the sorted samples, and
// false when even the median has fewer than 10 samples beyond it.
func tailPercentile(sorted []float64, target float64) (pct, value float64, ok bool) {
	n := len(sorted)
	for _, p := range []float64{target, 99, 95, 90, 75, 50} {
		if p > target {
			continue
		}
		if idx := nearestRank(n, p); idx >= 0 && n-1-idx >= 10 {
			return p, sorted[idx], true
		}
	}
	return 0, 0, false
}

// percentile returns the nearest-rank p-th percentile of sorted, or 0
// for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	idx := nearestRank(len(sorted), p)
	if idx < 0 {
		return 0
	}
	return sorted[idx]
}

// nearestRank is the 0-based index of the nearest-rank p-th percentile
// of n samples: the smallest index i with (i+1)/n >= p/100.
func nearestRank(n int, p float64) int {
	if n == 0 {
		return -1
	}
	// The small slack keeps float rounding (99.9/100*1e5 = 99900.00…01)
	// from skipping a rank.
	idx := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// digest is the SHA-256 of v's JSON encoding, shortened to 16 hex
// digits: the fingerprint of every simulated statistic of a run.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // results are plain data; encoding cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
