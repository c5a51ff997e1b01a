// Package stats provides the small statistical toolkit the evaluation
// uses: means, the harmonic mean (the paper's multi-thread performance
// metric, after Luo et al.), variance (the paper's Figure 9 fairness
// metric), and simple histograms for latency distributions.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// HarmonicMean returns the harmonic mean of xs. It is the paper's
// aggregate performance metric over co-scheduled threads' normalized
// IPCs ("the harmonic mean of the co-scheduled threads' normalized
// IPCs"). Non-positive entries make the result 0.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += 1 / x
	}
	return float64(len(xs)) / s
}

// Variance returns the population variance of xs (0 for fewer than one
// element). The paper reports the variance of normalized target data
// bus utilizations: 0.20 under FR-FCFS versus 0.0058 under FQ-VFTF.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Min returns the minimum of xs (+Inf for empty input).
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (-Inf for empty input).
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Histogram is a fixed-bucket histogram over [0, BucketWidth*len(Counts)).
type Histogram struct {
	BucketWidth float64
	Counts      []int64
	Overflow    int64
	N           int64
	Sum         float64
}

// NewHistogram returns a histogram with n buckets of the given width.
func NewHistogram(bucketWidth float64, n int) *Histogram {
	if bucketWidth <= 0 || n <= 0 {
		panic(fmt.Sprintf("stats: invalid histogram (%v, %d)", bucketWidth, n))
	}
	return &Histogram{BucketWidth: bucketWidth, Counts: make([]int64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.N++
	h.Sum += x
	i := int(x / h.BucketWidth)
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		h.Overflow++
		return
	}
	h.Counts[i]++
}

// Mean returns the mean of recorded observations.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Quantile returns an upper bound on the q-quantile from the bucket
// boundaries (the right edge of the bucket containing the quantile).
func (h *Histogram) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	target := int64(q * float64(h.N))
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			return float64(i+1) * h.BucketWidth
		}
	}
	return float64(len(h.Counts)) * h.BucketWidth
}
