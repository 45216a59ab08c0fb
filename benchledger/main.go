// Command benchledger is the repository's benchmark: it runs one workload
// against the public l4e API and the internal packages, checks the outputs,
// and prints the workload's metrics, the last line being one JSON object.
//
//	bash benchledger/run.sh --workload paper-sim --seed 1 --seconds 25 --trace 0
//
// Workloads (inputs derived from --seed; cell i uses seed+i):
//
//	paper-sim      a fixed number of 100-station scenarios in turn, OL_GD
//	               stepped by one goroutine
//	serve-http     16 cells behind the HTTP API on loopback, open-loop load
//	               at a nominal rate, then a saturation search
//	serve-durable  the same 16 cells with durable state, an observer and an
//	               SLO tracker, driven closed-loop in process, then recovered
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1
// runs an untraced reference phase, then the same work traced, recording
// spans around every call into a layer, and prints the per-layer metrics,
// each layer's self time and the tracing overhead; the spans are written to
// <work-dir>/spans/ when the run ends.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

var workloads = map[string]func(context.Context, *runEnv) (result, error){
	"paper-sim":     runPaperSim,
	"serve-http":    runServeHTTP,
	"serve-durable": runServeDurable,
}

// runEnv is what a workload needs from the command line.
type runEnv struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workDir  string
	out      io.Writer
	cleanup  *cleanupStack
}

// cleanupStack runs registered clean-ups once, last first: on return, and
// from the deadline watchdog before it exits.
type cleanupStack struct {
	mu   sync.Mutex
	once sync.Once
	fns  []func()
}

func (c *cleanupStack) push(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

func (c *cleanupStack) run() {
	c.once.Do(func() {
		c.mu.Lock()
		fns := c.fns
		c.mu.Unlock()
		for i := len(fns) - 1; i >= 0; i-- {
			fns[i]()
		}
	})
}

// tempDir makes a directory under the work dir that clean-up removes.
func (e *runEnv) tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(e.workDir, prefix)
	if err != nil {
		return "", err
	}
	e.cleanup.push(func() { os.RemoveAll(dir) })
	return dir, nil
}

// writeSpans dumps the traced run's spans.
func (e *runEnv) writeSpans(tr *tracer) error {
	dir := filepath.Join(e.workDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "spans: %d written to %s\n", len(tr.snapshot()), path)
	return nil
}

// finish adds the process-wide metrics and selects the reported set.
func (e *runEnv) finish(vals map[string]float64, acct accounting) (result, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	vals["peak_rss_mb"] = rss
	defs, zeroOK := endToEnd, false
	if e.trace {
		defs, zeroOK = perLayer, true
	} else {
		for _, d := range reportedOnly {
			if v, ok := vals[d.name]; ok {
				fmt.Fprintf(e.out, "metric %-30s %14.6f %s (reported, not in the result)\n", d.name, v, d.unit)
			} else {
				fmt.Fprintf(e.out, "metric %-30s too few samples in this run\n", d.name)
			}
		}
	}
	m, err := fill(defs, vals, zeroOK)
	if err != nil {
		return result{}, err
	}
	return result{Correct: true, Attempted: acct.attempted(), Failed: acct.failed(), Metrics: m}, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "paper-sim, serve-http or serve-durable")
	seed := fs.Int64("seed", 1, "input seed; cell i uses seed+i")
	seconds := fs.Int("seconds", 25, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workDir := fs.String("work-dir", ".bench_build", "directory for state dirs and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchledger: want --workload paper-sim|serve-http|serve-durable, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchledger:", err)
		return 1
	}
	env := &runEnv{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workDir: *workDir, out: stdout, cleanup: &cleanupStack{},
	}
	defer env.cleanup.run()

	// Hard deadline: a stalled run cleans up and exits non-zero instead of
	// hanging. The context stops the workload first; the watchdog exits if
	// the workload does not return in time.
	limit := min(2*env.seconds+60*time.Second, 160*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), limit-10*time.Second)
	defer cancel()
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "benchledger: %s: no result after %v, giving up\n", *workload, limit)
		cleaned := make(chan struct{})
		go func() {
			env.cleanup.run()
			close(cleaned)
		}()
		select {
		case <-cleaned:
		case <-time.After(5 * time.Second): // a stuck shutdown must not hold the exit
		}
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Fprintf(stdout, "# benchledger workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := fn(ctx, env)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("deadline of %v exceeded: %w", limit, err)
		}
		fmt.Fprintf(stderr, "benchledger: %s: %v\n", *workload, err)
		return 1
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "benchledger:", err)
		return 1
	}
	return 0
}
