package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/mecsim/l4e"
)

// spanHeader carries the client's span ID to the traced handler wrapper, so
// the server-side span parents onto the request that caused it.
const spanHeader = "X-Bench-Span"

// cellBook is the per-cell ledger the correctness checks use. Each cell is
// owned by one connection, and phases are separated by a WaitGroup, so the
// entries need no locks.
type cellBook struct {
	stations  int
	decides   []int // successful decides, so the next decision's slot
	uncertain []bool
	delays    delayLedger
}

func newCellBook(cells, stations int) *cellBook {
	return &cellBook{stations: stations, decides: make([]int, cells),
		uncertain: make([]bool, cells), delays: make(delayLedger, cells)}
}

// accept checks one decision and books it; a decision that is malformed or
// does not advance its cell's slot by exactly one is a protocol error.
func (b *cellBook) accept(cell int, d *l4e.CellDecision) error {
	if err := checkDecision(d, b.stations); err != nil {
		return err
	}
	if d.Slot != b.decides[cell] {
		return fmt.Errorf("cell %d: decision for slot %d, want %d", cell, d.Slot, b.decides[cell])
	}
	b.decides[cell]++
	b.delays.add(cell, d, servingProfile.delaySlots)
	return nil
}

// checkCells compares the server's view of every cell with the book: the
// slot advanced once per decide (the last one may still await its observe).
func (b *cellBook) checkCells(infos []l4e.DecisionCellInfo) error {
	for _, info := range infos {
		if b.uncertain[info.Cell] {
			continue
		}
		got := info.Slot
		if info.PendingObserve {
			got++
		}
		if got != b.decides[info.Cell] {
			return fmt.Errorf("cell %d is at slot %d (pending %v) after %d decides",
				info.Cell, info.Slot, info.PendingObserve, b.decides[info.Cell])
		}
	}
	return nil
}

// conn is one keep-alive connection of the load generator and the disjoint
// slice of cells it owns, so the decide/observe protocol of a cell never
// races across connections.
type conn struct {
	client *http.Client
	cells  []int
	rng    *rand.Rand
	next   int
}

// loadgen drives the decision API open-loop: each connection walks a Poisson
// schedule fixed in advance and every request is timed from its intended
// send, so a stalled server shows up as tail latency rather than as a lower
// offered rate.
type loadgen struct {
	base  string
	book  *cellBook
	conns []*conn
	tr    *tracer
	// lastElapsed is the wall time of the last open-loop phase, from its
	// start until every connection finished.
	lastElapsed time.Duration
}

func newLoadgen(base string, book *cellBook, nconns int, seed int64, tr *tracer) *loadgen {
	cells := len(book.decides)
	nconns = max(1, min(nconns, cells))
	g := &loadgen{base: base, book: book, tr: tr}
	for i := 0; i < nconns; i++ {
		c := &conn{
			// One transport per connection, one connection per transport.
			client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}},
			rng: rand.New(rand.NewSource(seed*7919 + int64(i))),
		}
		for cell := i; cell < cells; cell += nconns {
			c.cells = append(c.cells, cell)
		}
		g.conns = append(g.conns, c)
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.conns {
		c.client.CloseIdleConnections()
	}
}

// each runs fn once per connection concurrently and merges the stats.
func (g *loadgen) each(fn func(c *conn, st *opStats)) *opStats {
	stats := make([]*opStats, len(g.conns))
	var wg sync.WaitGroup
	for i, c := range g.conns {
		stats[i] = &opStats{}
		wg.Add(1)
		go func(c *conn, st *opStats) {
			defer wg.Done()
			fn(c, st)
		}(c, stats[i])
	}
	wg.Wait()
	out := &opStats{}
	for _, st := range stats {
		out.merge(st)
	}
	return out
}

// warm plays n untimed closed-loop pairs on every cell.
func (g *loadgen) warm(ctx context.Context, n int) error {
	tr := g.tr
	g.tr = nil
	defer func() { g.tr = tr }()
	st := g.each(func(c *conn, st *opStats) {
		for i := 0; i < n*len(c.cells) && ctx.Err() == nil; i++ {
			g.pair(ctx, c, time.Now(), st)
		}
	})
	if st.acct.failed() > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", st.acct.failed(), st.acct.attempted())
	}
	return ctx.Err()
}

// open runs an open-loop phase at rate requests/s (decides; each is followed
// by its observe) for d. A connection still working through its backlog
// grace after the schedule ends counts the rest as unsent.
func (g *loadgen) open(ctx context.Context, rate float64, d, grace time.Duration) *opStats {
	start := time.Now()
	end, cutoff := start.Add(d), start.Add(d+grace)
	mean := float64(time.Second) * float64(len(g.conns)) / rate
	defer func() { g.lastElapsed = time.Since(start) }()
	return g.each(func(c *conn, st *opStats) {
		gap := func() time.Duration { return time.Duration(c.rng.ExpFloat64() * mean) }
		for intended := start.Add(gap()); !intended.After(end); intended = intended.Add(gap()) {
			if wait := time.Until(intended); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					t.Stop()
				case <-t.C:
				}
			}
			if ctx.Err() != nil || time.Now().After(cutoff) {
				// The rest of the schedule counts as unsent.
				for ; !intended.After(end); intended = intended.Add(gap()) {
					st.acct.unsent++
				}
				return
			}
			g.pair(ctx, c, intended, st)
		}
	})
}

type decideResponse struct {
	Cell int `json:"cell"`
	l4e.CellDecision
}

// pair sends one decide and its observe to the connection's next cell.
func (g *loadgen) pair(ctx context.Context, c *conn, intended time.Time, st *opStats) {
	cell := c.cells[c.next%len(c.cells)]
	c.next++
	root, decID := g.tr.id(), g.tr.id()
	body := []byte(`{"cell":` + strconv.Itoa(cell) + `}`)

	sent := time.Now()
	status, raw, err := g.post(ctx, c, "/v1/decide", body, decID)
	done := time.Now()
	g.tr.add(decID, root, "http", "decide", sent, done)
	st.acct.sent++
	if !g.classify(cell, status, err, &st.acct) {
		return
	}
	var resp decideResponse
	if err := json.Unmarshal(raw, &resp); err != nil || resp.Cell != cell {
		st.acct.protocol++
		g.book.uncertain[cell] = true
		return
	}
	if err := g.book.accept(cell, &resp.CellDecision); err != nil {
		st.acct.protocol++
		g.book.uncertain[cell] = true
		return
	}
	st.acct.ok++
	st.mix.add(&resp.CellDecision)

	obsID := g.tr.id()
	osent := time.Now()
	status, _, err = g.post(ctx, c, "/v1/observe", body, obsID)
	odone := time.Now()
	g.tr.add(obsID, root, "http", "observe", osent, odone)
	st.acct.sent++
	if !g.classify(cell, status, err, &st.acct) {
		return
	}
	st.acct.ok++
	st.pairs++
	st.decideMS.add(done.Sub(intended))
	st.pairMS.add(odone.Sub(intended))
	st.rttMS.add(done.Sub(sent))
	st.lagMS.add(sent.Sub(intended))
	st.algoMS = append(st.algoMS, resp.DecideMS)
	g.tr.add(root, 0, "loadgen", "pair", intended, time.Now())
}

// classify books a non-200 outcome and reports whether the request
// succeeded at the HTTP level.
func (g *loadgen) classify(cell, status int, err error, a *accounting) bool {
	switch {
	case err != nil:
		a.errors++
		g.book.uncertain[cell] = true
	case status == http.StatusTooManyRequests:
		a.rejected++
	case status == http.StatusConflict:
		a.protocol++
	case status != http.StatusOK:
		a.errors++
	default:
		return true
	}
	return false
}

// post sends one JSON request and reads the whole body, so the keep-alive
// connection is reused.
func (g *loadgen) post(ctx context.Context, c *conn, path string, body []byte, span int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// tracedHandler records a serve-layer span around every request the
// program's handler serves, parented on the client's span.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
			tr.record(parent, "serve", r.URL.Path, start, time.Now())
		}
	})
}

// satStep is one probed rate of the saturation search.
type satStep struct {
	offered, achieved, p99 float64
	acct                   accounting
	pass                   bool
}

// saturate searches for the highest offered rate whose decides meet the p99
// limit with no failed, refused or unsent request, within budget. It ramps
// geometrically from start until a step fails, then bisects. A failing rate
// is probed once more and fails only if the repeat fails too, so one stall
// of the host does not end the ramp. It returns the achieved rate at the
// highest passing step. A step with a protocol error ends the search with
// an error: overload may refuse or delay requests, but never break them.
func (g *loadgen) saturate(ctx context.Context, start, p99Limit float64, budget time.Duration) (float64, []satStep, error) {
	const grace = time.Second
	var lo, hi, best float64
	var steps []satStep
	deadline := time.Now().Add(budget)
	rate := start
	confirming := false
	for ctx.Err() == nil {
		// Long enough for ~1200 decides, so the p99 has 10 samples beyond it.
		d := time.Duration(math.Max(1, 1200/rate) * float64(time.Second))
		if time.Now().Add(d + grace).After(deadline) {
			break
		}
		st := g.open(ctx, rate, d, grace)
		step := satStep{offered: rate, achieved: float64(st.pairs) / g.lastElapsed.Seconds(), acct: st.acct}
		p99, err := percentile(st.decideMS, 99)
		step.p99 = p99
		step.pass = err == nil && st.acct.failed() == 0 && p99 <= p99Limit
		steps = append(steps, step)
		if err := st.acct.checkProtocol(fmt.Sprintf("saturation step at %.1f/s", rate)); err != nil {
			return 0, steps, err
		}
		if !step.pass && !confirming {
			confirming = true
			continue
		}
		confirming = false
		if step.pass {
			lo, best = rate, step.achieved
		} else {
			hi = rate
		}
		switch {
		case hi == 0:
			rate = lo * 1.4
		case lo == 0:
			rate = hi / 1.6
		default:
			if hi/lo < 1.05 {
				return best, steps, nil
			}
			rate = math.Sqrt(lo * hi)
		}
	}
	return best, steps, nil
}
