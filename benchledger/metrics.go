package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/mecsim/l4e"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names; TestCatalogMatchesBenchmarkJSON keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, and with reportedOnly
// the ones every workload prints. Where a metric's natural home is another
// workload, it takes the nearest meaning on this one:
//   - slots_per_s, decisions_per_s: completed Decide+Observe slots and
//     completed decides per second. Every decide of a run is followed by its
//     observe, so the two are one number and only slots_per_s is gated. On
//     serve-http it is the completed rate of the fixed nominal schedule: it
//     moves only when pairs fail or the backlog outlasts the phase.
//   - max_rate_per_s: serve-http's saturation search; on the closed-loop
//     workloads the loop is saturated by construction, so it is the
//     closed-loop decision rate.
//   - slot_*, ack_*: one Decide+Observe pair until both return; on
//     serve-durable both are durably logged then, on serve-http the time
//     runs from the pair's intended send. Both come from the same samples,
//     so only slot_p50_ms is gated.
//   - decide_*: the Decide call alone (serve-http: from intended send).
//   - recovery_s: serve-durable rebuilds its pool from disk; the in-memory
//     workloads restore every cell from a checkpoint taken at the end.
//   - ok_frac: 1 - fail_frac, so the metric is never 0 on a healthy run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slots_per_s", "1/s"},
	{"slot_p50_ms", "ms"},
	{"avg_delay_ms", "ms"},
	{"decide_p50_ms", "ms"},
	{"recovery_s", "s"},
	{"ok_frac", "ratio"},
	{"peak_rss_mb", "MB"},
}

// reportedOnly are end-to-end metrics every untraced run prints but the
// result line leaves out. decisions_per_s and ack_p50_ms repeat gated
// metrics (see above). On a shared 2-CPU host the tails and the saturation
// point move by a third to a half from run to run, wider than any bound
// that would still catch a regression.
var reportedOnly = []metricDef{
	{"decisions_per_s", "1/s"},
	{"ack_p50_ms", "ms"},
	{"slot_p99_ms", "ms"},
	{"decide_p99_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"max_rate_per_s", "1/s"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.decide_p50_ms", "ms"},
		{"sim.decide_p99_ms", "ms"},
		{"sim.observe_p50_ms", "ms"},
		{"sim.degraded_ratio", "ratio"},
		{"algorithms.decide_p50_ms", "ms"},
		{"algorithms.decide_p99_ms", "ms"},
		{"bandit.explore_ratio", "ratio"},
		{"caching.warm_ratio", "ratio"},
		{"caching.skip_ratio", "ratio"},
		{"caching.fallback_ratio", "ratio"},
		{"flow.pivots_per_solve", "count"},
		{"flow.basis_rebuild_ratio", "ratio"},
		{"lp.solves", "count"},
		{"serve.decide_p50_ms", "ms"},
		{"serve.decide_p99_ms", "ms"},
		{"serve.observe_p50_ms", "ms"},
		{"serve.queue_wait_p99_ms", "ms"},
		{"serve.batch_wait_p50_ms", "ms"},
		{"serve.solve_p50_ms", "ms"},
		{"serve.encode_p50_ms", "ms"},
		{"serve.batch_size_mean", "count"},
		{"http.rtt_p50_ms", "ms"},
		{"http.rtt_p99_ms", "ms"},
		{"http.handler_p50_ms", "ms"},
		{"http.client_self_p50_ms", "ms"},
		{"loadgen.send_lag_p99_ms", "ms"},
		{"loadgen.sent", "count"},
		{"loadgen.unsent", "count"},
		{"persist.wal_records_per_op", "ratio"},
		{"persist.checkpoints", "count"},
		{"persist.io_errors", "count"},
		{"persist.state_bytes", "bytes"},
		{"persist.recover_ms_per_cell", "ms"},
		{"obs.snapshot_ms", "ms"},
		{"obs.series", "count"},
		{"runtime.allocs_per_decision", "count"},
		{"runtime.bytes_per_decision", "bytes"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"trace.overhead_ratio", "ratio"},
	}
	for _, l := range spanLayers {
		defs = append(defs, metricDef{l + ".self_p50_ms", "ms"}, metricDef{l + ".self_share", "ratio"})
	}
	return defs
}()

// metricValue is one reported value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map for defs from vals. A def missing from vals
// reads 0 when zeroOK (a layer the workload does not reach); otherwise it
// is an error, as is any non-finite value.
func fill(defs []metricDef, vals map[string]float64, zeroOK bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !zeroOK {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// writeResult prints every metric as a readable line, then the result as
// one JSON object on the last line.
func writeResult(w io.Writer, r result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-30s %14.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// accounting counts one phase's operations by outcome. A failed or refused
// request counts as missing any latency limit.
type accounting struct {
	sent, ok, errors, rejected, unsent, protocol int64
}

func (a accounting) failed() int64    { return a.errors + a.rejected + a.unsent + a.protocol }
func (a accounting) attempted() int64 { return a.sent + a.unsent }

func (a accounting) okFrac() float64 {
	return ratio(float64(a.attempted()-a.failed()), float64(a.attempted()))
}

func (a *accounting) merge(b accounting) {
	a.sent += b.sent
	a.ok += b.ok
	a.errors += b.errors
	a.rejected += b.rejected
	a.unsent += b.unsent
	a.protocol += b.protocol
}

// checkProtocol fails a phase that had any protocol error: a reply that did
// not decode, a decision without one valid station per request, or a slot
// that did not advance exactly once. Errors, 429s and unsent requests only
// lower ok_frac.
func (a accounting) checkProtocol(phase string) error {
	if a.protocol > 0 {
		return fmt.Errorf("%s: %d of %d requests broke the decision protocol", phase, a.protocol, a.attempted())
	}
	return nil
}

func (a accounting) print(w io.Writer, phase string) {
	fmt.Fprintf(w, "phase %-12s sent %d  succeeded %d  failed %d (error %d, 429 %d, unsent %d, protocol %d)  fail_frac %.6f\n",
		phase, a.sent, a.ok, a.failed(), a.errors, a.rejected, a.unsent, a.protocol,
		ratio(float64(a.failed()), float64(a.attempted())))
}

// memDelta measures allocation and GC work over a phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// into stores the runtime.* layer metrics for a phase of n decisions.
func (m *memDelta) into(vals map[string]float64, decisions int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	vals["runtime.allocs_per_decision"] = ratio(float64(after.Mallocs-m.before.Mallocs), float64(decisions))
	vals["runtime.bytes_per_decision"] = ratio(float64(after.TotalAlloc-m.before.TotalAlloc), float64(decisions))
	vals["runtime.gc_cycles"] = float64(after.NumGC - m.before.NumGC)
	vals["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// putPercentiles stores prefix_p<p>_ms of xs for each p, windowed.
func putPercentiles(vals map[string]float64, prefix string, xs []float64, ps ...float64) error {
	for _, p := range ps {
		v, err := windowed(xs, p)
		if err != nil {
			return fmt.Errorf("%s: %w", prefix, err)
		}
		vals[fmt.Sprintf("%s_p%g_ms", prefix, p)] = v
	}
	return nil
}

// decisionMix counts the solver outcomes reported on each decision.
type decisionMix struct {
	decisions, degraded, warm, skipped, fallback int64
}

func (m *decisionMix) add(d *l4e.CellDecision) {
	m.decisions++
	if d.Degraded {
		m.degraded++
	}
	if d.WarmSolve {
		m.warm++
	}
	if d.SkippedSolve {
		m.skipped++
	}
	if d.FallbackSolves > 0 {
		m.fallback++
	}
}

func (m decisionMix) into(vals map[string]float64) {
	n := float64(m.decisions)
	vals["sim.degraded_ratio"] = ratio(float64(m.degraded), n)
	vals["caching.warm_ratio"] = ratio(float64(m.warm), n)
	vals["caching.skip_ratio"] = ratio(float64(m.skipped), n)
	vals["caching.fallback_ratio"] = ratio(float64(m.fallback), n)
}

func (m *decisionMix) merge(o decisionMix) {
	m.decisions += o.decisions
	m.degraded += o.degraded
	m.warm += o.warm
	m.skipped += o.skipped
	m.fallback += o.fallback
}

// opStats is one phase's ledger of timed operations, merged over the
// goroutines that drove them.
type opStats struct {
	acct                        accounting
	pairs                       int64 // Decide+Observe pairs that both succeeded
	decideMS, observeMS, pairMS latencies
	algoMS                      latencies   // the policy's own decide time, CellDecision.DecideMS
	rttMS                       latencies   // serve-http: decide round trip from the actual send
	lagMS                       latencies   // serve-http: actual minus intended send
	done                        []time.Time // serve-durable: when each pair returned
	mix                         decisionMix
}

func (s *opStats) merge(o *opStats) {
	s.acct.merge(o.acct)
	s.pairs += o.pairs
	s.decideMS = append(s.decideMS, o.decideMS...)
	s.observeMS = append(s.observeMS, o.observeMS...)
	s.pairMS = append(s.pairMS, o.pairMS...)
	s.algoMS = append(s.algoMS, o.algoMS...)
	s.rttMS = append(s.rttMS, o.rttMS...)
	s.lagMS = append(s.lagMS, o.lagMS...)
	s.done = append(s.done, o.done...)
	s.mix.merge(o.mix)
}

// observerInto reads the program's own solver and bandit counters.
func observerInto(vals map[string]float64, snap l4e.MetricsSnapshot) {
	c := snap.Counters
	vals["lp.solves"] = float64(c["lp.solves"])
	vals["flow.pivots_per_solve"] = ratio(float64(c["flow.pivots"]), float64(c["lp.solves"]))
	vals["flow.basis_rebuild_ratio"] = ratio(float64(c["flow.basis_rebuilds"]), float64(c["flow.warm_starts"]))
	vals["bandit.explore_ratio"] = ratio(float64(c["bandit.explore_slots"]),
		float64(c["bandit.explore_slots"]+c["bandit.exploit_slots"]))
	vals["obs.series"] = float64(snap.NumSeries())
}

// selfInto stores each layer's self time per operation and its share.
func selfInto(vals map[string]float64, spans []span) {
	perOp, share := layerSelf(spans)
	for _, l := range spanLayers {
		if xs := perOp[l]; len(xs) > 0 {
			vals[l+".self_p50_ms"] = median(xs)
		}
		vals[l+".self_share"] = share[l]
	}
}

// putEndToEnd stores prefix_p50_ms, and prefix_p99_ms when the run has the
// samples for one: the p99 is reported only, so a run too short for it
// prints none rather than failing.
func putEndToEnd(vals map[string]float64, prefix string, xs []float64) error {
	if err := putPercentiles(vals, prefix, xs, 50); err != nil {
		return err
	}
	_ = putPercentiles(vals, prefix, xs, 99)
	return nil
}
