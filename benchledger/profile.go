package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/mecsim/l4e"
)

// servingProfile is the one serving configuration both serve workloads
// measure: the same cells as `mecd -cells 16 -incremental -flow-engine
// simplex`, on a DecisionServer with one shard per CPU, batch 16, queue 256.
var servingProfile = struct {
	cells, stations, batch, queue int
	policy                        string
	// checkpointEvery, sloLatencyMS: serve-durable's production flag set
	// (mecd -state-dir -slo-latency-ms).
	checkpointEvery int
	sloLatencyMS    float64
	// warmupSlots per cell are played untimed before measuring: the first
	// slots build the carried solver bases.
	warmupSlots int
	// delaySlots is the per-cell slot prefix avg_delay_ms averages over,
	// one workload horizon, so the metric is deterministic for a seed.
	delaySlots int
}{
	cells: 16, stations: 30, batch: 16, queue: 256,
	policy:          "OL_GD/incremental-simplex",
	checkpointEvery: 64,
	sloLatencyMS:    25,
	warmupSlots:     5,
	delaySlots:      100,
}

// buildPool builds the profile's cells; cell i uses seed+i.
func buildPool(seed int64, o *l4e.Observer) ([]*l4e.Cell, error) {
	p := servingProfile
	pool := make([]*l4e.Cell, p.cells)
	for i := range pool {
		opts := []l4e.ScenarioOption{l4e.WithStations(p.stations), l4e.WithSeed(seed + int64(i))}
		if o != nil {
			opts = append(opts, l4e.WithObserver(o))
		}
		scn, err := l4e.NewScenario(opts...)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		if pool[i], err = scn.NewCell(p.policy); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return pool, nil
}

// serverConfig is the profile's DecisionServer configuration; stateDir and
// the observer are what separate serve-durable from serve-http.
func serverConfig(stateDir string, o *l4e.Observer, slo *l4e.SLOTracker) l4e.DecisionServerConfig {
	p := servingProfile
	cfg := l4e.DecisionServerConfig{
		Shards:     runtime.NumCPU(),
		QueueDepth: p.queue,
		BatchMax:   p.batch,
		Observer:   o,
		SLO:        slo,
		StateDir:   stateDir,
	}
	if stateDir != "" {
		cfg.CheckpointEvery = p.checkpointEvery
	}
	return cfg
}

// checkDecision reports a decision that does not give every active request
// exactly one valid station.
func checkDecision(d *l4e.CellDecision, stations int) error {
	if len(d.Stations) != len(d.Requests) {
		return fmt.Errorf("slot %d: %d stations for %d requests", d.Slot, len(d.Stations), len(d.Requests))
	}
	for j, s := range d.Stations {
		if s < 0 || s >= stations {
			return fmt.Errorf("slot %d: request %d on station %d, want [0,%d)", d.Slot, d.Requests[j], s, stations)
		}
	}
	return nil
}

// delayLedger keeps each cell's realised slot delays for the first
// delaySlots slots, in slot order, so avg_delay_ms sums in a fixed order.
type delayLedger [][]float64

func (l delayLedger) add(cell int, d *l4e.CellDecision, limit int) {
	if d.Slot < limit && d.Slot == len(l[cell]) {
		l[cell] = append(l[cell], d.DelayMS)
	}
}

// avg is the mean delay over the slot prefix every cell reached.
func (l delayLedger) avg() (float64, int, error) {
	n := -1
	for _, xs := range l {
		if n < 0 || len(xs) < n {
			n = len(xs)
		}
	}
	if n <= 0 {
		return 0, 0, fmt.Errorf("no cell completed a slot")
	}
	sum := 0.0
	for _, xs := range l {
		for _, v := range xs[:n] {
			sum += v
		}
	}
	return sum / float64(n*len(l)), n, nil
}

// timeRestores checkpoints cells, then times rebuilding them with rebuild
// and restoring every checkpoint (the fastSide quantile of n attempts). Each
// restored state is checked against its checkpoint after it is timed.
func timeRestores(n int, cells []*l4e.Cell, rebuild func() ([]*l4e.Cell, error)) (float64, error) {
	payloads := make([][]byte, len(cells))
	for i, c := range cells {
		var err error
		if payloads[i], err = c.Checkpoint(); err != nil {
			return 0, err
		}
	}
	ds, err := setupTimes(n, recoverySpread, false, func() (func() error, error) {
		fresh, err := rebuild()
		if err != nil {
			return nil, err
		}
		for i, c := range fresh {
			if err := c.RestoreState(payloads[i]); err != nil {
				return nil, fmt.Errorf("cell %d: %w", i, err)
			}
		}
		return func() error {
			for i, c := range fresh {
				got, err := c.ExportState()
				if err != nil {
					return err
				}
				if !bytes.Equal(got, payloads[i]) {
					return fmt.Errorf("cell %d: restored state differs from its checkpoint", i)
				}
			}
			return nil
		}, nil
	})
	return quantile(ds, fastSide), err
}

// setupSpread and recoverySpread are the wall time one batch of set-up or
// recovery attempts is spread over: the host's speed switches between a
// fast and a slow state from millisecond to millisecond, for seconds at a
// time, and attempts made back to back would all sample the same moment.
// For the same reason setup_s takes a batch before the measured phase and
// one after it; recovery, timed once at the end, gets a longer batch.
const (
	setupSpread    = 2 * time.Second
	recoverySpread = 5 * time.Second
)

// setupTimes runs build n times, spread over spread, and returns each
// build's time in seconds. Every attempt is torn down, untimed, except the
// last when keepLast: the caller keeps it.
func setupTimes(n int, spread time.Duration, keepLast bool, build func() (teardown func() error, err error)) ([]float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			time.Sleep(spread / time.Duration(n))
		}
		runtime.GC() // no collection debt from earlier work lands in the timing
		start := time.Now()
		teardown, err := build()
		if err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(start).Seconds())
		if i < n-1 || !keepLast {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
	}
	return ds, nil
}

// timeRecovery runs attempt n times, spread over recoverySpread, and
// returns the fastSide quantile of the recovery times; the caller keeps the
// last attempt.
func timeRecovery(n int, attempt func() (teardown func() error, err error)) (float64, error) {
	ds, err := setupTimes(n, recoverySpread, true, attempt)
	return quantile(ds, fastSide), err
}
