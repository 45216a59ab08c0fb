package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"github.com/mecsim/l4e"
	"github.com/mecsim/l4e/internal/obs"
)

// serve-http offers load at nominalRate, then searches for the highest rate
// whose decide p99 stays within p99LimitMS, starting at saturationStart.
// Each connection serves its pairs one at a time, so requests queue in the
// client; the nominal rate keeps that queue short, so its latency reflects
// the server more than the queue. The limit is loose enough that a short
// stall of the host does not end the search, which stops only when the
// backlog grows.
const (
	nominalRate     = 150.0
	saturationStart = 1200.0
	p99LimitMS      = 100.0
)

// httpRig is one DecisionServer over the serving profile, served on a
// loopback listener through the program's own Server.Handler().
type httpRig struct {
	pool    []*l4e.Cell
	srv     *l4e.DecisionServer
	httpSrv *http.Server
	served  chan error
	base    string
}

func startHTTPRig(ctx context.Context, seed int64, o *l4e.Observer, tr *tracer) (*httpRig, error) {
	pool, err := buildPool(seed, o)
	if err != nil {
		return nil, err
	}
	srv, err := l4e.NewDecisionServer(serverConfig("", o, nil), pool)
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(ctx) //nolint:errcheck // the listen error is the one to report
		return nil, err
	}
	r := &httpRig{pool: pool, srv: srv, served: make(chan error, 1), base: "http://" + lis.Addr().String(),
		httpSrv: &http.Server{Handler: tracedHandler(srv.Handler(), tr), ReadHeaderTimeout: 10 * time.Second}}
	go func() { r.served <- r.httpSrv.Serve(lis) }()
	// Set-up ends when the first request is served.
	for {
		resp, err := http.Get(r.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		if ctx.Err() != nil {
			r.stop() //nolint:errcheck // the deadline is the error to report
			return nil, fmt.Errorf("server never became healthy: %w", ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener, then the shard workers, and waits for both.
func (r *httpRig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.httpSrv.Shutdown(ctx)
	if serr := <-r.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := r.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	return err
}

// httpPhase is the outcome of one serve-http rig's life.
type httpPhase struct {
	setup      float64
	nominal    *opStats
	nomElapsed time.Duration
	maxRate    float64
	book       *cellBook
	pool       []*l4e.Cell
	snap       l4e.MetricsSnapshot // the observer's, at the end of the nominal phase
	mem        map[string]float64  // runtime.* over the nominal phase
}

// runHTTPPhase sets up the rig, warms every cell, runs the nominal phase and
// the saturation search for the time each is given, then shuts down and
// checks the server's cells against the client's book. With a nominal
// phase, set-up is the fastSide quantile of attempts made before and after the
// phases.
func runHTTPPhase(ctx context.Context, env *runEnv, nomDur, satDur time.Duration, o *l4e.Observer, tr *tracer) (*httpPhase, error) {
	// Only a rig with a nominal phase reports its set-up time.
	attempts := 1
	if nomDur > 0 {
		attempts = 51
	}
	var rig *httpRig
	build := func() (func() error, error) {
		var err error
		rig, err = startHTTPRig(ctx, env.seed, o, tr)
		if err != nil {
			return nil, err
		}
		return rig.stop, nil
	}
	setups, err := setupTimes(attempts, setupSpread, true, build)
	if err != nil {
		return nil, err
	}
	stopped := false
	env.cleanup.push(func() {
		if !stopped {
			rig.stop() //nolint:errcheck // best effort on the error path
		}
	})
	p := &httpPhase{pool: rig.pool, mem: map[string]float64{},
		book: newCellBook(servingProfile.cells, servingProfile.stations)}
	g := newLoadgen(rig.base, p.book, runtime.NumCPU(), env.seed, tr)
	defer g.close()
	if err := g.warm(ctx, servingProfile.warmupSlots); err != nil {
		return nil, err
	}
	if err := p.measure(ctx, env.out, g, nomDur, satDur, o); err != nil {
		return nil, err
	}
	stopped = true
	if err := rig.stop(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.book.checkCells(rig.srv.Cells()); err != nil {
		return nil, err
	}
	if nomDur > 0 {
		after, err := setupTimes(50, setupSpread, false, build)
		if err != nil {
			return nil, err
		}
		setups = append(setups, after...)
	}
	p.setup = quantile(setups, fastSide)
	return p, nil
}

// measure runs the nominal phase and the saturation search on g for the
// time each is given. A protocol error in either phase fails the run.
func (p *httpPhase) measure(ctx context.Context, out io.Writer, g *loadgen, nomDur, satDur time.Duration, o *l4e.Observer) error {
	if nomDur > 0 {
		mem := startMem()
		p.nominal = g.open(ctx, nominalRate, nomDur, 2*time.Second)
		p.nomElapsed = g.lastElapsed
		mem.into(p.mem, p.nominal.mix.decisions)
		if o != nil {
			p.snap = o.Snapshot()
		}
		p.nominal.acct.print(out, "nominal")
		if err := p.nominal.acct.checkProtocol("nominal phase"); err != nil {
			return err
		}
	}
	if satDur > 0 {
		var steps []satStep
		var err error
		p.maxRate, steps, err = g.saturate(ctx, saturationStart, p99LimitMS, satDur)
		for _, s := range steps {
			fmt.Fprintf(out, "saturation step offered %.1f/s achieved %.1f/s p99 %.3f ms pass %v\n",
				s.offered, s.achieved, s.p99, s.pass)
			s.acct.print(out, "saturation")
		}
		if err != nil {
			return err
		}
		if p.maxRate == 0 {
			fmt.Fprintf(out, "saturation: no probed rate met the %g ms p99 limit\n", p99LimitMS)
		}
	}
	return nil
}

func runServeHTTP(ctx context.Context, env *runEnv) (result, error) {
	vals := map[string]float64{}
	if env.trace {
		// The reference phase differs from the traced one only in the
		// tracer: same length, and an observer of its own attached.
		ref, err := runHTTPPhase(ctx, env, env.seconds*2/5, 0, l4e.NewObserver(l4e.ObserverOptions{}), nil)
		if err != nil {
			return result{}, fmt.Errorf("untraced phase: %w", err)
		}
		for k, v := range ref.mem {
			vals[k] = v
		}
		refP50, err := percentile(ref.nominal.decideMS, 50)
		if err != nil {
			return result{}, err
		}
		o, tr := l4e.NewObserver(l4e.ObserverOptions{}), newTracer()
		p, err := runHTTPPhase(ctx, env, env.seconds*2/5, 0, o, tr)
		if err != nil {
			return result{}, fmt.Errorf("traced phase: %w", err)
		}
		if err := httpLayers(vals, p, tr.snapshot()); err != nil {
			return result{}, err
		}
		tracedP50, err := percentile(p.nominal.decideMS, 50)
		if err != nil {
			return result{}, err
		}
		vals["trace.overhead_ratio"] = tracedP50 / refP50
		if err := env.writeSpans(tr); err != nil {
			return result{}, err
		}
		acct := ref.nominal.acct
		acct.merge(p.nominal.acct)
		return env.finish(vals, acct)
	}

	// The nominal phase and the saturation search get a rig each, so the
	// state recovery_s restores does not depend on how far the search went.
	p, err := runHTTPPhase(ctx, env, env.seconds*3/5, 0, nil, nil)
	if err != nil {
		return result{}, err
	}
	rebuild := func() ([]*l4e.Cell, error) { return buildPool(env.seed, nil) }
	if vals["recovery_s"], err = timeRestores(101, p.pool, rebuild); err != nil {
		return result{}, fmt.Errorf("recovery: %w", err)
	}
	sat, err := runHTTPPhase(ctx, env, 0, env.seconds*2/5, nil, nil)
	if err != nil {
		return result{}, fmt.Errorf("saturation: %w", err)
	}
	n := p.nominal
	vals["setup_s"] = p.setup
	vals["slots_per_s"] = float64(n.pairs) / p.nomElapsed.Seconds()
	vals["decisions_per_s"] = float64(n.mix.decisions) / p.nomElapsed.Seconds()
	vals["max_rate_per_s"] = sat.maxRate
	vals["ok_frac"] = n.acct.okFrac()
	for prefix, xs := range map[string][]float64{"slot": n.pairMS, "ack": n.pairMS, "decide": n.decideMS} {
		if err := putEndToEnd(vals, prefix, xs); err != nil {
			return result{}, err
		}
	}
	avg, slots, err := p.book.delays.avg()
	if err != nil {
		return result{}, err
	}
	vals["avg_delay_ms"] = avg
	fmt.Fprintf(env.out, "serve-http: nominal %.0f/s over %v: %d pairs; avg delay %.6f ms over %d slots x %d cells; max rate %.1f/s\n",
		nominalRate, p.nomElapsed.Round(time.Millisecond), n.pairs, avg, slots, servingProfile.cells, sat.maxRate)
	return env.finish(vals, n.acct)
}

// httpLayers derives the per-layer metrics of a traced serve-http phase.
func httpLayers(vals map[string]float64, p *httpPhase, spans []span) error {
	n := p.nominal
	if err := putPercentiles(vals, "http.rtt", n.rttMS, 50, 99); err != nil {
		return err
	}
	if err := putPercentiles(vals, "loadgen.send_lag", n.lagMS, 99); err != nil {
		return err
	}
	if err := putPercentiles(vals, "algorithms.decide", n.algoMS, 50, 99); err != nil {
		return err
	}
	// Handler time and the client's own share of each decide round trip.
	handler := map[int64]float64{}
	for _, s := range spans {
		if s.Layer == "serve" && s.Name == "/v1/decide" {
			handler[s.Parent] = float64(s.End-s.Start) / 1e6
		}
	}
	var hs, self []float64
	for _, s := range spans {
		if h, ok := handler[s.ID]; ok && s.Layer == "http" {
			hs = append(hs, h)
			self = append(self, float64(s.End-s.Start)/1e6-h)
		}
	}
	var err error
	if vals["http.handler_p50_ms"], err = percentile(hs, 50); err != nil {
		return fmt.Errorf("http.handler: %w", err)
	}
	if vals["http.client_self_p50_ms"], err = percentile(self, 50); err != nil {
		return fmt.Errorf("http.client_self: %w", err)
	}
	vals["loadgen.sent"] = float64(n.acct.sent)
	vals["loadgen.unsent"] = float64(n.acct.unsent)
	n.mix.into(vals)
	observerInto(vals, p.snap)
	if err := serveHistograms(vals, p.snap); err != nil {
		return err
	}
	selfInto(vals, spans)
	return nil
}

// serveHistograms reads the serving layer's own stage histograms, merged
// over their labels.
func serveHistograms(vals map[string]float64, snap l4e.MetricsSnapshot) error {
	for _, h := range []struct {
		series, metric string
		q              float64
	}{
		{"serve.queue_wait_ms", "serve.queue_wait_p99_ms", 99},
		{"serve.batch_wait_ms", "serve.batch_wait_p50_ms", 50},
		{"serve.solve_ms", "serve.solve_p50_ms", 50},
		{"serve.encode_ms", "serve.encode_p50_ms", 50},
		{`serve.e2e_ms{route="decide"}`, "serve.decide_p50_ms", 50},
		{`serve.e2e_ms{route="decide"}`, "serve.decide_p99_ms", 99},
		{`serve.e2e_ms{route="observe"}`, "serve.observe_p50_ms", 50},
	} {
		merged, ok := mergeHistograms(snap, h.series)
		if !ok {
			continue // the workload does not reach this stage
		}
		if beyond := float64(merged.Count) * (100 - h.q) / 100; beyond < minTail {
			return fmt.Errorf("%s: only %.1f samples beyond p%g", h.metric, beyond, h.q)
		}
		vals[h.metric] = merged.Quantile(h.q)
	}
	if bs, ok := mergeHistograms(snap, "serve.batch_size"); ok {
		vals["serve.batch_size_mean"] = bs.Mean
	}
	return nil
}

// mergeHistograms sums every labeled series of one histogram (or the one
// series named exactly, when series carries its labels).
func mergeHistograms(snap l4e.MetricsSnapshot, series string) (obs.HistogramSnapshot, bool) {
	var m obs.HistogramSnapshot
	found := false
	for key, h := range snap.Histograms {
		if key != series && !strings.HasPrefix(key, series+"{") {
			continue
		}
		if !found {
			m, found = h, true
			m.Counts = append([]int64(nil), h.Counts...)
			continue
		}
		for i := range m.Counts {
			m.Counts[i] += h.Counts[i]
		}
		m.Count += h.Count
		m.Sum += h.Sum
	}
	if !found || m.Count == 0 {
		return m, false
	}
	m.Mean = m.Sum / float64(m.Count)
	return m, true
}
