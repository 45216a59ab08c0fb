package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers that get self-time metrics. Spans are recorded by the benchmark
// around its calls into each layer; nothing inside the program is traced.
var spanLayers = []string{"bench", "loadgen", "http", "serve", "sim", "algorithms", "obs"}

// span is one timed call into a layer. Parent 0 marks a root span: one
// benchmark operation (a slot, a request pair, a scrape).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced path pays one pointer test per call.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID, so children recorded before their parent ends can
// name it. It returns 0 on a nil tracer.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span under a reserved ID.
func (t *tracer) add(id, parent int64, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record reserves an ID and records the span in one step (for leaf spans).
func (t *tracer) record(parent int64, layer, name string, start, end time.Time) {
	t.add(t.id(), parent, layer, name, start, end)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children count once, and children are clipped
// to the parent's interval.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.a > cur.b {
			covered += cur.b - cur.a
			cur = v
			continue
		}
		cur.b = max(cur.b, v.b)
	}
	covered += cur.b - cur.a
	return parent.End - parent.Start - covered
}

// layerSelf sums each layer's self time within every root operation. It
// returns, per layer, one value in milliseconds for each operation that
// touched the layer, and the layer's share of all root-span time.
func layerSelf(spans []span) (perOp map[string][]float64, share map[string]float64) {
	byID := make(map[int64]span, len(spans))
	children := make(map[int64][]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	root := func(s span) int64 {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s.ID
	}
	ops := map[int64]map[string]int64{}
	var rootTotal int64
	layerTotal := map[string]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			rootTotal += s.End - s.Start
		}
		r := root(s)
		if ops[r] == nil {
			ops[r] = map[string]int64{}
		}
		st := selfTime(s, children[s.ID])
		ops[r][s.Layer] += st
		layerTotal[s.Layer] += st
	}
	perOp = map[string][]float64{}
	for _, byLayer := range ops {
		for layer, ns := range byLayer {
			perOp[layer] = append(perOp[layer], float64(ns)/1e6)
		}
	}
	share = map[string]float64{}
	for layer, ns := range layerTotal {
		share[layer] = ratio(float64(ns), float64(rootTotal))
	}
	return perOp, share
}

// write dumps the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}

// snapshot returns a copy of the spans kept so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
