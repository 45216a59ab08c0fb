package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 50},  // overlaps the first: counted once
		{Parent: 1, Start: 80, End: 120}, // runs past the parent: clipped
		{Parent: 1, Start: 200, End: 300},
	}
	// Covered: [10,50] and [80,100], 60 of 100.
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("self time = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestLayerSelfPerOperation(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Layer: "sim", Start: 1 * ms, End: 9 * ms},
		{ID: 3, Parent: 2, Layer: "algorithms", Start: 2 * ms, End: 7 * ms},
		{ID: 4, Parent: 1, Layer: "sim", Start: 9 * ms, End: 10 * ms},
	}
	perOp, share := layerSelf(spans)
	for layer, want := range map[string]float64{"bench": 1, "sim": 4, "algorithms": 5} {
		if got := perOp[layer]; len(got) != 1 || math.Abs(got[0]-want) > 1e-9 {
			t.Errorf("%s self per op = %v, want [%v]", layer, got, want)
		}
		if got := share[layer]; math.Abs(got-want/10) > 1e-9 {
			t.Errorf("%s share = %v, want %v", layer, got, want/10)
		}
	}
}
