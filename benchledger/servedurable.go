package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/mecsim/l4e"
)

// durableRig is the serving profile with durable state, an observer and an
// SLO tracker: mecd's production flag set, driven in process.
type durableRig struct {
	srv *l4e.DecisionServer
	o   *l4e.Observer
}

// startDurable builds the pool and the server over dir and waits until
// recovery (of an empty or a populated dir) lets requests through.
func startDurable(ctx context.Context, seed int64, dir string) (*durableRig, error) {
	o := l4e.NewObserver(l4e.ObserverOptions{})
	pool, err := buildPool(seed, o)
	if err != nil {
		return nil, err
	}
	slo := l4e.NewSLOTracker(l4e.SLOConfig{LatencyObjectiveMS: servingProfile.sloLatencyMS})
	srv, err := l4e.NewDecisionServer(serverConfig(dir, o, slo), pool)
	if err != nil {
		return nil, err
	}
	select {
	case <-srv.Recovered():
	case <-ctx.Done():
		shutdown(srv) //nolint:errcheck // the deadline is the error to report
		return nil, ctx.Err()
	}
	return &durableRig{srv: srv, o: o}, nil
}

func shutdown(srv *l4e.DecisionServer) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// durablePhase is one set-up, warm-up, measured closed loop, shutdown and
// recovery of serve-durable.
type durablePhase struct {
	setup, recovery float64
	stats           *opStats
	start           time.Time
	elapsed         time.Duration
	book            *cellBook
	snap            l4e.MetricsSnapshot
	scrapeMS        latencies
	stateBytes      int64
	ops             int64
	mem             map[string]float64
}

// drive runs one caller closed loop: it plays Decide then Observe on every
// cell in turn, perCell pairs on each. One caller leaves a CPU to the shard
// workers and the runtime; with one caller per CPU on a 2-CPU host the
// benchmark's goroutines competed with the server's, and the rate moved by
// half again as much from run to run.
func drive(ctx context.Context, srv *l4e.DecisionServer, book *cellBook, tr *tracer, timed bool, perCell int) *opStats {
	st := &opStats{}
	cells := len(book.decides)
	for i := 0; i < perCell*cells && ctx.Err() == nil; i++ {
		if !durablePair(srv, book, i%cells, tr, timed, st) {
			break
		}
	}
	return st
}

// durablePair sends one Decide+Observe pair; it reports false on failure.
func durablePair(srv *l4e.DecisionServer, book *cellBook, cell int, tr *tracer, timed bool, st *opStats) bool {
	root, decID := tr.id(), tr.id()
	t0 := time.Now()
	d, err := srv.Decide(cell, nil)
	t1 := time.Now()
	st.acct.sent++
	if err != nil {
		if errors.Is(err, l4e.ErrServerBusy) {
			st.acct.rejected++
		} else {
			st.acct.errors++
		}
		book.uncertain[cell] = true
		return false
	}
	if err := book.accept(cell, d); err != nil {
		st.acct.protocol++
		book.uncertain[cell] = true
		return false
	}
	st.acct.ok++
	err = srv.Observe(cell, nil, nil)
	t2 := time.Now()
	st.acct.sent++
	if err != nil {
		st.acct.errors++
		book.uncertain[cell] = true
		return false
	}
	st.acct.ok++
	if !timed {
		return true
	}
	st.pairs++
	st.mix.add(d)
	st.decideMS.add(t1.Sub(t0))
	st.observeMS.add(t2.Sub(t1))
	st.pairMS.add(t2.Sub(t0))
	st.done = append(st.done, t2)
	st.algoMS = append(st.algoMS, d.DecideMS)
	if tr != nil {
		tr.record(decID, "algorithms", "decide", t0, t0.Add(time.Duration(d.DecideMS*float64(time.Millisecond))))
		tr.add(decID, root, "serve", "decide", t0, t1)
		tr.record(root, "serve", "observe", t1, t2)
		tr.add(root, 0, "bench", "pair", t0, time.Now())
	}
	return true
}

// scrape times Observer.Snapshot once a second, like a metrics scraper,
// until stop is closed.
func scrape(o *l4e.Observer, tr *tracer, stop <-chan struct{}) latencies {
	var out latencies
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			start := time.Now()
			_ = o.Snapshot()
			end := time.Now()
			out.add(end.Sub(start))
			tr.record(0, "obs", "snapshot", start, end)
		}
	}
}

// durableSlotsPerS is the per-cell slot rate the fixed work of a run is
// sized by: about d of work on a 2-CPU machine.
const durableSlotsPerS = 56

// durableSlots is the fixed number of slots each cell plays in a phase
// sized for d, warm-up included. A fixed count keeps the state size and
// the WAL tail recovery replays the same from run to run; it is half a
// checkpoint interval past a checkpoint, the expected tail.
func durableSlots(d time.Duration) int {
	every := servingProfile.checkpointEvery
	return int(d.Seconds()*durableSlotsPerS)/every*every + every/2
}

func runDurablePhase(ctx context.Context, env *runEnv, dur time.Duration, tr *tracer) (*durablePhase, error) {
	root, err := env.tempDir("durable-")
	if err != nil {
		return nil, err
	}
	var rig *durableRig
	attempt := 0
	build := func() (func() error, error) {
		attempt++
		dir := filepath.Join(root, "setup-"+strconv.Itoa(attempt))
		var err error
		if rig, err = startDurable(ctx, env.seed, dir); err != nil {
			return nil, err
		}
		r := rig
		return func() error {
			if err := shutdown(r.srv); err != nil {
				return err
			}
			return os.RemoveAll(dir)
		}, nil
	}
	setups, err := setupTimes(51, setupSpread, true, build)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, "setup-"+strconv.Itoa(attempt))
	stopped := false
	env.cleanup.push(func() {
		if !stopped {
			shutdown(rig.srv) //nolint:errcheck // best effort on the error path
		}
	})

	p := &durablePhase{mem: map[string]float64{},
		book: newCellBook(servingProfile.cells, servingProfile.stations)}
	warmup := servingProfile.warmupSlots
	warm := drive(ctx, rig.srv, p.book, nil, false, warmup)
	if warm.acct.failed() > 0 {
		return nil, fmt.Errorf("warm-up: %d requests failed", warm.acct.failed())
	}

	stopScrape := make(chan struct{})
	scraped := make(chan latencies, 1)
	go func() { scraped <- scrape(rig.o, tr, stopScrape) }()
	mem := startMem()
	p.start = time.Now()
	p.stats = drive(ctx, rig.srv, p.book, tr, true, durableSlots(dur)-warmup)
	p.elapsed = time.Since(p.start)
	mem.into(p.mem, p.stats.mix.decisions)
	close(stopScrape)
	p.scrapeMS = <-scraped
	p.snap = rig.o.Snapshot()
	p.ops = warm.acct.sent + p.stats.acct.sent
	p.stats.acct.print(env.out, "measure")

	stopped = true
	if err := shutdown(rig.srv); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.stats.acct.failed() > 0 {
		return nil, fmt.Errorf("%d of %d requests failed", p.stats.acct.failed(), p.stats.acct.attempted())
	}
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			p.stateBytes += info.Size()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// More set-ups, each in a fresh state dir, after the measured phase.
	after, err := setupTimes(50, setupSpread, false, build)
	if err != nil {
		return nil, err
	}
	p.setup = quantile(append(setups, after...), fastSide)

	// Recovery: rebuild the pool over the same state dir; no acked decision
	// may be lost.
	var last *durableRig
	p.recovery, err = timeRecovery(25, func() (func() error, error) {
		var err error
		if last, err = startDurable(ctx, env.seed, dir); err != nil {
			return nil, err
		}
		r := last
		return func() error { return checkRecovered(r, p.book) }, nil
	})
	if err == nil {
		err = checkRecovered(last, p.book)
	}
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	return p, nil
}

// slotRate is the measured phase's completed pairs per second, windowed
// over checkpoint cycles: in one cycle every cell plays checkpointEvery
// slots and writes one snapshot.
func (p *durablePhase) slotRate() float64 {
	ends := make([]float64, len(p.stats.done))
	for i, t := range p.stats.done {
		ends[i] = t.Sub(p.start).Seconds()
	}
	return windowedRate(ends, servingProfile.cells*servingProfile.checkpointEvery)
}

// checkRecovered shuts a recovered server down and checks that every cell
// resumed at the slot after its last acked decide.
func checkRecovered(r *durableRig, book *cellBook) error {
	if err := shutdown(r.srv); err != nil {
		return err
	}
	for _, info := range r.srv.Cells() {
		if info.Slot != book.decides[info.Cell] || info.PendingObserve {
			return fmt.Errorf("cell %d recovered at slot %d (pending %v), %d decides were acked",
				info.Cell, info.Slot, info.PendingObserve, book.decides[info.Cell])
		}
	}
	return nil
}

func runServeDurable(ctx context.Context, env *runEnv) (result, error) {
	vals := map[string]float64{}
	if env.trace {
		// The reference phase differs from the traced one only in the
		// tracer: both play the same slots with the profile's observer.
		ref, err := runDurablePhase(ctx, env, env.seconds/2, nil)
		if err != nil {
			return result{}, fmt.Errorf("untraced phase: %w", err)
		}
		tr := newTracer()
		p, err := runDurablePhase(ctx, env, env.seconds/2, tr)
		if err != nil {
			return result{}, fmt.Errorf("traced phase: %w", err)
		}
		if err := durableLayers(vals, p, tr.snapshot()); err != nil {
			return result{}, err
		}
		for k, v := range ref.mem {
			vals[k] = v
		}
		refRate := float64(ref.stats.mix.decisions) / ref.elapsed.Seconds()
		vals["trace.overhead_ratio"] = refRate / (float64(p.stats.mix.decisions) / p.elapsed.Seconds())
		if err := env.writeSpans(tr); err != nil {
			return result{}, err
		}
		acct := ref.stats.acct
		acct.merge(p.stats.acct)
		return env.finish(vals, acct)
	}

	p, err := runDurablePhase(ctx, env, env.seconds, nil)
	if err != nil {
		return result{}, err
	}
	s := p.stats
	rate := float64(s.mix.decisions) / p.elapsed.Seconds()
	vals["setup_s"] = p.setup
	vals["recovery_s"] = p.recovery
	vals["slots_per_s"] = p.slotRate()
	vals["decisions_per_s"] = vals["slots_per_s"]
	vals["max_rate_per_s"] = vals["slots_per_s"]
	vals["ok_frac"] = s.acct.okFrac()
	for prefix, xs := range map[string][]float64{"slot": s.pairMS, "ack": s.pairMS, "decide": s.decideMS} {
		if err := putEndToEnd(vals, prefix, xs); err != nil {
			return result{}, err
		}
	}
	avg, slots, err := p.book.delays.avg()
	if err != nil {
		return result{}, err
	}
	vals["avg_delay_ms"] = avg
	fmt.Fprintf(env.out, "serve-durable: %d decisions in %v (%.1f/s); avg delay %.6f ms over %d slots x %d cells; recovery %.3fs, %d state bytes\n",
		s.mix.decisions, p.elapsed.Round(time.Millisecond), rate, avg, slots, servingProfile.cells, p.recovery, p.stateBytes)
	return env.finish(vals, s.acct)
}

// durableLayers derives the per-layer metrics of a traced serve-durable
// phase.
func durableLayers(vals map[string]float64, p *durablePhase, spans []span) error {
	s := p.stats
	if err := serveHistograms(vals, p.snap); err != nil {
		return err
	}
	// The benchmark's own timings of DecisionServer.Decide/Observe replace
	// the program's end-to-end histograms here.
	if err := putPercentiles(vals, "serve.decide", s.decideMS, 50, 99); err != nil {
		return err
	}
	if err := putPercentiles(vals, "serve.observe", s.observeMS, 50); err != nil {
		return err
	}
	if err := putPercentiles(vals, "algorithms.decide", s.algoMS, 50, 99); err != nil {
		return err
	}
	s.mix.into(vals)
	observerInto(vals, p.snap)
	c := p.snap.Counters
	vals["persist.wal_records_per_op"] = ratio(float64(c["persist.wal_records"]), float64(p.ops))
	vals["persist.checkpoints"] = float64(c["persist.checkpoints"])
	vals["persist.io_errors"] = float64(c["persist.io_errors"])
	vals["persist.state_bytes"] = float64(p.stateBytes)
	vals["persist.recover_ms_per_cell"] = p.recovery * 1000 / float64(servingProfile.cells)
	if len(p.scrapeMS) > 0 {
		vals["obs.snapshot_ms"] = median(p.scrapeMS)
	}
	selfInto(vals, spans)
	return nil
}
