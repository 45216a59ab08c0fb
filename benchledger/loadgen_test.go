package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubDecisionServer answers decides one at a time, each after service,
// with the next slot of the cell and one request on station 0; the badAt-th
// decide (1-based; 0 for none) puts its request on station 5 instead, out of
// range for a one-station cell.
func stubDecisionServer(service time.Duration, badAt int) *httptest.Server {
	var mu sync.Mutex
	slots := map[string]int{}
	decides := 0
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/observe" {
			w.Write([]byte(`{"observed":true}`)) //nolint:errcheck
			return
		}
		var body strings.Builder
		buf := make([]byte, 64)
		n, _ := r.Body.Read(buf)
		body.Write(buf[:n])
		cell := strings.TrimSuffix(strings.TrimPrefix(body.String(), `{"cell":`), `}`)
		mu.Lock()
		time.Sleep(service)
		slot := slots[cell]
		slots[cell]++
		decides++
		station := 0
		if decides == badAt {
			station = 5
		}
		mu.Unlock()
		fmt.Fprintf(w, `{"cell":%s,"slot":%d,"requests":[7],"stations":[%d],"delay_ms":1}`, cell, slot, station)
	}))
}

// TestStalledServerShowsAsOpenLoopTail drives a stub server that serves one
// decide at a time, far slower than the offered rate. Timed from the
// intended send, the backlog the stall builds must show as latency far above
// the service time, and the schedule the generator could not send must be
// counted as unsent rather than dropped.
func TestStalledServerShowsAsOpenLoopTail(t *testing.T) {
	const service = 30 * time.Millisecond
	srv := stubDecisionServer(service, 0)
	defer srv.Close()

	book := newCellBook(2, 1)
	g := newLoadgen(srv.URL, book, 1, 1, nil)
	defer g.close()
	st := g.open(context.Background(), 100, time.Second, 200*time.Millisecond)
	if st.acct.protocol+st.acct.errors+st.acct.rejected > 0 {
		t.Fatalf("unexpected failures: %+v", st.acct)
	}
	if st.pairs < 20 {
		t.Fatalf("%d pairs completed, want >= 20", st.pairs)
	}
	p50, err := percentile(st.decideMS, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p50 < 3*msOf(service) {
		t.Errorf("decide p50 from intended send = %.1f ms: the stall's backlog is not visible (service %v)", p50, service)
	}
	rtt, err := percentile(st.rttMS, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rtt > 2*msOf(service) {
		t.Errorf("round trip p50 = %.1f ms, want about the %v service time", rtt, service)
	}
	if st.acct.unsent == 0 {
		t.Error("unsent = 0, want > 0 when the server cannot keep up with the schedule")
	}
	if err := book.checkCells(nil); err != nil {
		t.Error(err)
	}
}

// TestBadDecisionFailsThePhase checks that one decision with an
// out-of-range station fails the nominal phase and the saturation search,
// rather than only lowering ok_frac.
func TestBadDecisionFailsThePhase(t *testing.T) {
	for _, c := range []struct {
		name           string
		nomDur, satDur time.Duration
	}{
		{"nominal", 500 * time.Millisecond, 0},
		{"saturation", 0, 3 * time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := stubDecisionServer(0, 3)
			defer srv.Close()
			p := &httpPhase{book: newCellBook(2, 1), mem: map[string]float64{}}
			g := newLoadgen(srv.URL, p.book, 1, 1, nil)
			defer g.close()
			err := p.measure(context.Background(), io.Discard, g, c.nomDur, c.satDur, nil)
			if err == nil || !strings.Contains(err.Error(), "protocol") {
				t.Fatalf("measure = %v, want a protocol error", err)
			}
		})
	}
	// The same server without the bad reply passes.
	srv := stubDecisionServer(0, 0)
	defer srv.Close()
	p := &httpPhase{book: newCellBook(2, 1), mem: map[string]float64{}}
	g := newLoadgen(srv.URL, p.book, 1, 1, nil)
	defer g.close()
	if err := p.measure(context.Background(), io.Discard, g, 500*time.Millisecond, 0, nil); err != nil {
		t.Fatalf("measure without a bad reply = %v", err)
	}
}
