package main

import (
	"context"
	"fmt"
	"time"

	"github.com/mecsim/l4e"
)

// paper-sim: 100-station GT-ITM scenarios with given demands (the Figs. 3-5
// setting, l4e defaults) running OL_GD as Scenario.NewPolicy builds it,
// stepped by a single goroutine past the workload horizon. A single
// scenario's slot cost varies by a fifth from seed to seed, so the run plays
// a fixed number of scenarios, seed, seed+1, ..., each for 1.5 horizons.
const paperPolicy = "OL_GD"

const (
	// paperWarmup slots of each scenario are played untimed; they still
	// count toward avg_delay_ms, which covers the whole first horizon.
	paperWarmup = 10
	// paperDelayCells is how many leading scenarios avg_delay_ms averages.
	paperDelayCells = 6
	// paperSlotsPerS is the slot rate the fixed work of a run is sized by:
	// about d of timed slots on a 2-CPU machine.
	paperSlotsPerS = 85
)

// paperScenarios is the fixed number of scenarios a phase sized for d plays.
// A fixed count, not a time limit, so that two builds of the program time
// the same slots whatever their speed.
func paperScenarios(d time.Duration, timedPerScenario int) int {
	return max(1, int(d.Seconds()*paperSlotsPerS/float64(timedPerScenario)+0.5))
}

// simStepper drives one scenario's cell slot by slot.
type simStepper struct {
	cell     *l4e.Cell
	stations int
	horizon  int
	slot     int
	delays   []float64 // realised delay of each first-horizon slot
}

func newPaperCell(seed int64, o *l4e.Observer) (*simStepper, error) {
	opts := []l4e.ScenarioOption{l4e.WithSeed(seed)}
	if o != nil {
		opts = append(opts, l4e.WithObserver(o))
	}
	scn, err := l4e.NewScenario(opts...)
	if err != nil {
		return nil, err
	}
	cell, err := scn.NewCell(paperPolicy)
	if err != nil {
		return nil, err
	}
	return &simStepper{cell: cell, stations: scn.Net.NumStations(), horizon: scn.Workload.Config.Horizon}, nil
}

// step plays one Decide+Observe slot and checks the decision.
func (s *simStepper) step() (d *l4e.CellDecision, decided time.Time, err error) {
	if d, err = s.cell.Decide(nil); err != nil {
		return nil, decided, fmt.Errorf("slot %d decide: %w", s.slot, err)
	}
	decided = time.Now()
	if err := s.cell.Observe(nil, nil); err != nil {
		return nil, decided, fmt.Errorf("slot %d observe: %w", s.slot, err)
	}
	if err := checkDecision(d, s.stations); err != nil {
		return nil, decided, err
	}
	if d.Slot != s.slot {
		return nil, decided, fmt.Errorf("decision for slot %d, want %d", d.Slot, s.slot)
	}
	s.slot++
	if d.Slot < s.horizon {
		s.delays = append(s.delays, d.DelayMS)
	}
	return d, decided, nil
}

// checkHorizon compares the first-horizon average delay with Scenario.Run
// of the same policy and seed, bit for bit.
func (s *simStepper) checkHorizon(seed int64) error {
	scn, err := l4e.NewScenario(l4e.WithSeed(seed))
	if err != nil {
		return err
	}
	p, err := scn.NewPolicy(paperPolicy)
	if err != nil {
		return err
	}
	ref, err := scn.Run(p)
	if err != nil {
		return err
	}
	if len(s.delays) != len(ref.PerSlotDelayMS) {
		return fmt.Errorf("stepped %d horizon slots, Scenario.Run played %d", len(s.delays), len(ref.PerSlotDelayMS))
	}
	sum := 0.0
	for _, d := range s.delays {
		sum += d
	}
	if avg := sum / float64(len(s.delays)); avg != ref.AvgDelayMS {
		return fmt.Errorf("seed %d: avg delay %x over the horizon, Scenario.Run gives %x", seed, avg, ref.AvgDelayMS)
	}
	return nil
}

// paperRun plays the scenario sequence and keeps the timed ledger.
type paperRun struct {
	seed  int64
	o     *l4e.Observer
	tr    *tracer
	cells []*simStepper

	opStats // pairs counts timed slots
	// cost is each timed step's wall time including the benchmark's own
	// bookkeeping and tracing, the base of trace.overhead_ratio.
	cost latencies
}

// next builds the next scenario of the sequence and plays its warm-up
// slots, untimed.
func (r *paperRun) next() (*simStepper, error) {
	if n := len(r.cells); n > paperDelayCells {
		// Its delays are no longer needed, so peak memory does not grow
		// with the number of scenarios a run plays.
		r.cells[n-1] = nil
	}
	s, err := newPaperCell(r.seed+int64(len(r.cells)), r.o)
	if err != nil {
		return nil, err
	}
	r.cells = append(r.cells, s)
	for i := 0; i < paperWarmup; i++ {
		if _, _, err := s.step(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// measure plays the next n scenarios, timing every slot after the warm-up
// up to 1.5 horizons.
func (r *paperRun) measure(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		s, err := r.next()
		if err != nil {
			return err
		}
		for s.slot < s.horizon*3/2 {
			if err := ctx.Err(); err != nil {
				return err
			}
			root, decID := r.tr.id(), r.tr.id()
			t0 := time.Now()
			dec, t1, err := s.step()
			t2 := time.Now()
			if err != nil {
				return err
			}
			r.pairs++
			r.mix.add(dec)
			r.pairMS.add(t2.Sub(t0))
			r.decideMS.add(t1.Sub(t0))
			r.observeMS.add(t2.Sub(t1))
			r.algoMS = append(r.algoMS, dec.DecideMS)
			if r.tr != nil {
				// The policy's own Decide time is reported by the cell; it
				// sits inside Cell.Decide, so it is that span's child.
				r.tr.record(decID, "algorithms", "decide", t0, t0.Add(time.Duration(dec.DecideMS*float64(time.Millisecond))))
				r.tr.add(decID, root, "sim", "decide", t0, t1)
				r.tr.record(root, "sim", "observe", t1, t2)
				r.tr.add(root, 0, "bench", "slot", t0, time.Now())
			}
			r.cost.add(time.Since(t0))
		}
	}
	return nil
}

// rate is timed slots per second of timed slot time, windowed by scenario
// over a clock that runs only while a timed slot does.
func (r *paperRun) rate(timedPerScenario int) float64 {
	ends := make([]float64, len(r.pairMS))
	busy := 0.0
	for i, ms := range r.pairMS {
		busy += ms / 1000
		ends[i] = busy
	}
	return windowedRate(ends, timedPerScenario)
}

// delayAvg plays the first horizon of any leading scenario the measured
// phase did not reach, untimed, checks the first against Scenario.Run and
// returns the average delay over all of them.
func (r *paperRun) delayAvg() (float64, error) {
	for len(r.cells) < paperDelayCells {
		s, err := r.next()
		if err != nil {
			return 0, err
		}
		for s.slot < s.horizon {
			if _, _, err := s.step(); err != nil {
				return 0, err
			}
		}
	}
	sum, n := 0.0, 0
	for _, s := range r.cells[:paperDelayCells] {
		for _, d := range s.delays {
			sum += d
		}
		n += len(s.delays)
	}
	return sum / float64(n), r.cells[0].checkHorizon(r.seed)
}

func runPaperSim(ctx context.Context, env *runEnv) (result, error) {
	var first *simStepper
	build := func() (func() error, error) {
		var err error
		first, err = newPaperCell(env.seed, nil)
		return func() error { return nil }, err
	}
	setups, err := setupTimes(101, setupSpread, true, build)
	if err != nil {
		return result{}, err
	}
	vals := map[string]float64{}
	timed := first.horizon*3/2 - paperWarmup

	// The traced run's reference phase differs from the traced one only in
	// the tracer: the same scenarios, and an observer of its own attached.
	r := &paperRun{seed: env.seed}
	scenarios := paperScenarios(env.seconds, timed)
	if env.trace {
		r.o = l4e.NewObserver(l4e.ObserverOptions{})
		// Half the run each, but enough slots for the layer p99s.
		scenarios = max(paperScenarios(env.seconds/2, timed), (windowSamples+timed-1)/timed)
	}
	mem := startMem()
	if err := r.measure(ctx, scenarios); err != nil {
		return result{}, err
	}
	acct := accounting{sent: r.pairs, ok: r.pairs}

	if env.trace {
		mem.into(vals, r.pairs)
		o := l4e.NewObserver(l4e.ObserverOptions{})
		t := &paperRun{seed: env.seed, o: o, tr: newTracer()}
		if err := t.measure(ctx, scenarios); err != nil {
			return result{}, err
		}
		acct.merge(accounting{sent: t.pairs, ok: t.pairs})
		for _, pc := range []struct {
			prefix string
			xs     []float64
			ps     []float64
		}{
			{"sim.decide", t.decideMS, []float64{50, 99}},
			{"sim.observe", t.observeMS, []float64{50}},
			{"algorithms.decide", t.algoMS, []float64{50, 99}},
		} {
			if err := putPercentiles(vals, pc.prefix, pc.xs, pc.ps...); err != nil {
				return result{}, err
			}
		}
		t.mix.into(vals)
		observerInto(vals, o.Snapshot())
		selfInto(vals, t.tr.snapshot())
		// Both phases play the same scenarios and slots.
		vals["trace.overhead_ratio"] = sumMS(t.cost) / sumMS(r.cost)
		if _, err := t.delayAvg(); err != nil {
			return result{}, fmt.Errorf("traced run: %w", err)
		}
		if err := env.writeSpans(t.tr); err != nil {
			return result{}, err
		}
	} else {
		rate := r.rate(timed)
		vals["slots_per_s"] = rate
		vals["decisions_per_s"] = rate
		vals["max_rate_per_s"] = rate
		for prefix, xs := range map[string][]float64{"slot": r.pairMS, "ack": r.pairMS, "decide": r.decideMS} {
			if err := putEndToEnd(vals, prefix, xs); err != nil {
				return result{}, err
			}
		}
		avg, err := r.delayAvg()
		if err != nil {
			return result{}, err
		}
		vals["avg_delay_ms"] = avg
		fmt.Fprintf(env.out, "paper-sim: %d timed slots over %d scenarios at %.2f slots/s; avg delay %.6f ms over the first horizon of %d scenarios (seed %d agrees with Scenario.Run bit for bit)\n",
			r.pairs, len(r.cells), rate, avg, paperDelayCells, env.seed)
	}
	vals["ok_frac"] = acct.okFrac()
	after, err := setupTimes(100, setupSpread, false, build)
	if err != nil {
		return result{}, err
	}
	vals["setup_s"] = quantile(append(setups, after...), fastSide)

	// Recovery: restore a fresh cell from a checkpoint of the first
	// scenario, which has played its full 150 slots, so the state restored
	// is the same size on every run.
	rebuild := func() ([]*l4e.Cell, error) {
		s, err := newPaperCell(env.seed, nil)
		if err != nil {
			return nil, err
		}
		return []*l4e.Cell{s.cell}, nil
	}
	if vals["recovery_s"], err = timeRestores(201, []*l4e.Cell{r.cells[0].cell}, rebuild); err != nil {
		return result{}, fmt.Errorf("recovery: %w", err)
	}
	acct.print(env.out, "measure")
	return env.finish(vals, acct)
}

func sumMS(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
