package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two outliers, not a tail.
const minBeyond = 10

// errTooFewBeyond is returned when no percentile in the asked range has
// minBeyond samples above it.
var errTooFewBeyond = errors.New("too few samples for a tail percentile")

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above v.
func beyond(sorted []float64, v float64) int {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return len(sorted) - i
}

// percentile returns the p-th percentile of xs, refusing it when fewer than
// minBeyond samples lie above it.
func percentile(xs []float64, p float64) (float64, error) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0, errTooFewBeyond
	}
	v := sortedQuantile(s, p/100)
	if n := beyond(s, v); n < minBeyond {
		return 0, fmt.Errorf("p%g has %d samples beyond it, want %d: %w", p, n, minBeyond, errTooFewBeyond)
	}
	return v, nil
}

// tail returns the highest whole percentile at or below want that has at
// least minBeyond samples above it, and that percentile, so a report can
// say which tail it shows.
func tail(xs []float64, want int) (v float64, p int, err error) {
	for p = want; p >= 1; p-- {
		if v, err = percentile(xs, float64(p)); err == nil {
			return v, p, nil
		}
	}
	return 0, 0, fmt.Errorf("%d samples: %w", len(xs), errTooFewBeyond)
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// relClose reports whether a and b agree to tol relative to the larger.
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// rateMedian is the median over the whole seconds in [from, to) of the
// number of events landing in each.
func rateMedian(events []time.Time, from, to time.Time) float64 {
	n := int(to.Sub(from) / time.Second)
	if n < 1 {
		return float64(len(events)) / to.Sub(from).Seconds()
	}
	counts := make([]float64, n)
	for _, t := range events {
		if i := int(t.Sub(from) / time.Second); i >= 0 && i < n {
			counts[i]++
		}
	}
	return median(counts)
}
