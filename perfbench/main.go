// Command perfbench is the repository benchmark: one command that runs one
// of three workloads (tables, replay, service) for a fixed time, checks every
// output for correctness, and prints its metrics by name, with units.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload tables --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with no timers
// between the calls into the program. With --trace 1 it alternates untraced
// passes with traced passes, which time the calls into each module's public
// functions from outside, and prints the per-layer metrics plus the tracing
// overhead. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// The exit code is nonzero when any output differs from its golden file,
// reference or expected bytes, or when the run cannot start. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run builds its workload's set-up; setup_s
// is their median, so one slow build does not move the metric.
const setupRepeats = 5

// env is what a workload's set-up may use: the repository root (for golden
// files), a scratch directory inside it, and the seed.
type env struct {
	root    string
	scratch string
	seed    int64
}

// passResult is one untraced pass: the operations it attempted, the latency
// of each completed operation, the trace events it processed, and every
// correctness mismatch it found.
type passResult struct {
	attempted  int
	failed     int
	latencies  []time.Duration
	events     int64
	mismatches []error
}

// bench is one set-up workload instance.
type bench interface {
	// pass runs one unit of the workload with no timers inside and checks
	// its outputs.
	pass(ctx context.Context) passResult
	// tracedPass runs the same unit through the decomposed public calls,
	// timing each layer, and checks its outputs as well.
	tracedPass(ctx context.Context) (layerSample, passResult)
	close()
}

// workload names a set-up function.
type workload struct {
	name  string
	setup func(ctx context.Context, e env) (bench, error)
}

var workloads = []workload{
	{"tables", setupTables},
	{"replay", setupReplay},
	{"service", setupService},
}

// endToEndUnits are the untraced run's metrics and their units:
//
//	setup_s         median of the run's set-ups
//	wall_s          median wall time of one pass
//	events_per_s    trace events a pass processes per second, median pass
//	jobs_per_s      operations completed per second, median pass
//	latency_p50_ms  operation latency over the run, median
//	latency_p95_ms  operation latency over the run, 95th percentile
//	heap_peak_mb    peak live Go heap of a pass, median pass
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"wall_s":         "s",
	"events_per_s":   "events/s",
	"jobs_per_s":     "jobs/s",
	"latency_p50_ms": "ms",
	"latency_p95_ms": "ms",
	"heap_peak_mb":   "MB",
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	stdout, stderr := os.Stdout, os.Stderr
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: tables, replay or service")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "how long the timed part runs")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	root := fs.String("root", ".", "repository root (holds internal/report/testdata/golden)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload tables|replay|service, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	build := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := env{root: *root, scratch: scratch, seed: *seed}
	ctx := context.Background()
	budget := time.Duration(*seconds) * time.Second

	var res result
	if *traced == 0 {
		res, err = measure(ctx, *w, e, budget)
	} else {
		res, err = measureTraced(ctx, *w, e, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d attempted=%d failed=%d correct=%t\n",
		w.name, *seed, res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setupTimed builds the workload setupRepeats times, keeping the last
// instance, and returns it with the median set-up time.
func setupTimed(ctx context.Context, w workload, e env) (bench, float64, error) {
	var times []float64
	var b bench
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC()
		t0 := time.Now()
		nb, err := w.setup(ctx, e)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		b = nb
	}
	return b, median(times), nil
}

// absorb folds a pass's counts into the result; each mismatch clears
// Correct and is printed to stderr.
func (r *result) absorb(p passResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	for _, err := range p.mismatches {
		r.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: mismatch:", err)
	}
}

// measure is the untraced run: set-up, then passes until the time budget is
// spent (at least one), with a fresh GC before each pass so every pass
// starts from the same heap.
func measure(ctx context.Context, w workload, e env, budget time.Duration) (result, error) {
	b, setupS, err := setupTimed(ctx, w, e)
	if err != nil {
		return result{}, err
	}
	defer b.close()
	hs := startHeapSampler()
	defer hs.stop()

	res := result{Correct: true}
	var walls, peaks, jobRates, eventRates []float64
	var lats []time.Duration
	deadline := time.Now().Add(budget)
	for len(walls) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		hs.reset()
		t0 := time.Now()
		p := b.pass(ctx)
		wall := time.Since(t0).Seconds()
		peaks = append(peaks, float64(hs.peak())/(1<<20))
		walls = append(walls, wall)
		jobRates = append(jobRates, float64(len(p.latencies))/wall)
		eventRates = append(eventRates, float64(p.events)/wall)
		lats = append(lats, p.latencies...)
		res.absorb(p)
	}
	if len(lats) == 0 {
		return result{}, errors.New("no operation completed")
	}
	latMs := durationsMs(lats)
	res.Metrics = map[string]metric{}
	for name, v := range map[string]float64{
		"setup_s":        setupS,
		"wall_s":         median(walls),
		"events_per_s":   median(eventRates),
		"jobs_per_s":     median(jobRates),
		"latency_p50_ms": quantile(latMs, 0.50),
		"latency_p95_ms": quantile(latMs, 0.95),
		"heap_peak_mb":   median(peaks),
	} {
		res.Metrics[name] = metric{v, endToEndUnits[name]}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes, %d operations; pass walls (s) %.3f; heap peaks (MB) %.1f\n",
		w.name, len(walls), len(lats), walls, peaks)
	return res, nil
}

// measureTraced is the traced run: one set-up, then untraced and traced
// passes alternating until the time budget is spent (at least one of each).
// Per-layer metrics are medians over the traced passes; the tracing overhead
// is the median traced pass wall time minus the median untraced one.
func measureTraced(ctx context.Context, w workload, e env, budget time.Duration) (result, error) {
	b, err := w.setup(ctx, e)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer b.close()
	res := result{Correct: true}
	var plain, traced []float64
	var samples []layerSample
	deadline := time.Now().Add(budget)
	for len(traced) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		t0 := time.Now()
		p := b.pass(ctx)
		plain = append(plain, time.Since(t0).Seconds())
		res.absorb(p)

		runtime.GC()
		t0 = time.Now()
		ls, tp := b.tracedPass(ctx)
		traced = append(traced, time.Since(t0).Seconds())
		res.absorb(tp)
		samples = append(samples, ls)
	}
	res.Metrics = layerMetrics(samples)
	over := (median(traced) - median(plain)) * 1e3
	res.Metrics["tracing.overhead_ms"] = metric{over, "ms"}
	res.Metrics["tracing.overhead_pct"] = metric{100 * over / (median(plain) * 1e3), "%"}
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: %d untraced and %d traced passes\n",
		w.name, len(plain), len(traced))
	return res, nil
}
