package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a p99
// needs at least 1000 samples, a p50 at least 20. Fewer samples would make
// the tail a handful of outliers rather than a measurement.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of xs, interpolating
// linearly between order statistics. It refuses when fewer than minTail
// samples lie beyond the percentile.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0,100)", p)
	}
	n := len(xs)
	if beyond := float64(n) * (100 - p) / 100; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples: only %.1f beyond it, need %d", p, n, beyond, minTail)
	}
	return quantile(xs, p), nil
}

// quantile is percentile without the tail rule, for a set of repeated
// measurements such as per-window values or set-up attempts.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := float64(n-1) * p / 100
	lo := int(math.Floor(h))
	if lo+1 >= n {
		return s[n-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// fastSide is the percentile of a set of repeated timings that a gated
// metric reports: the fastest tenth of times, and 100-fastSide of rates. The
// shared host this benchmark was tuned on slows the whole machine by up to
// a half for seconds to minutes at a time (CPU steal, busy neighbours; see
// LEDGER.md). A median lands in whichever state held most of the run and
// moved by a third from run to run; the fast tenth of many short windows
// stays near the unloaded speed, and a change to the program moves every
// window, so it moves the fast tenth as much as the median.
const fastSide = 10

// windowSamples is the number of samples a p99 needs: minTail beyond it.
const windowSamples = 100 * minTail

// minWindow is the smallest window windowed cuts a series into.
const minWindow = 100

// windowed splits xs, in the order it was recorded, into windows of
// consecutive samples, each large enough for the p-th percentile, and
// returns the fastSide quantile over the windows of each window's p-th
// percentile. Fewer than four windows' worth of samples give the plain
// percentile.
func windowed(xs []float64, p float64) (float64, error) {
	size := max(minWindow, int(math.Ceil(minTail*100/(100-p))))
	k := len(xs) / size
	if k < 4 {
		return percentile(xs, p)
	}
	per := make([]float64, k)
	for w := range per {
		lo, hi := w*len(xs)/k, (w+1)*len(xs)/k
		v, err := percentile(xs[lo:hi], p)
		if err != nil {
			return 0, err
		}
		per[w] = v
	}
	return quantile(per, fastSide), nil
}

// windowedRate is the completion rate, in events per second, of events that
// ended at the times in ends (seconds from the start of the phase, in any
// order). The events are cut into windows of size in the order they ended;
// each window's rate is its events over the time since the window before
// ended, and the result is the 100-fastSide quantile of the windows' rates.
// A window should hold whole cycles of any periodic work, such as
// checkpoints, so that the fast windows are not the ones that skipped it.
// Fewer than four windows give the mean rate.
func windowedRate(ends []float64, size int) float64 {
	s := append([]float64(nil), ends...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	k := n / size
	if k < 4 {
		return float64(n) / s[n-1]
	}
	rates := make([]float64, k)
	prev := 0.0
	for w := range rates {
		end := s[(w+1)*size-1]
		rates[w] = float64(size) / (end - prev)
		prev = end
	}
	return quantile(rates, 100-fastSide)
}

// median is the middle value of a set of repeated measurements, where
// percentile's tail rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencies collects one latency series in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, msOf(d)) }
