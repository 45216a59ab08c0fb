package main

import (
	"math"
	"testing"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 999 samples accepted; fewer than 10 lie beyond it")
	}
	xs = append(xs, 999)
	got, err := percentile(xs, 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	if want := 989.01; math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 = %v, want %v", got, want)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples accepted")
	}
	if got, err := percentile(xs[:21], 50); err != nil || got != 10 {
		t.Errorf("p50 of 0..20 = %v, %v; want 10", got, err)
	}
}

// TestWindowedRateTakesTheFastWindows checks that a run slowed to half
// speed for half its time reports the rate of its fast half.
func TestWindowedRateTakesTheFastWindows(t *testing.T) {
	var ends []float64
	at := 0.0
	for i := 0; i < 1000; i++ {
		if i < 500 {
			at += 0.02 // slow: 50/s
		} else {
			at += 0.01 // fast: 100/s
		}
		ends = append(ends, at)
	}
	if got := windowedRate(ends, 100); math.Abs(got-100) > 1e-6 {
		t.Errorf("windowed rate = %v, want 100", got)
	}
	// Too few windows: the mean rate.
	if got, want := windowedRate(ends[:300], 100), 300/ends[299]; got != want {
		t.Errorf("rate of 3 windows = %v, want the mean %v", got, want)
	}
}
