// Command perfbench is the repository's benchmark: three workloads over
// the in-process MPI-Vector-IO pipeline, each checked against a
// brute-force oracle, reporting end-to-end metrics (untraced runs) or
// per-layer metrics (traced runs). See README.md for what each workload
// exercises and how its metrics map to layers.
//
//	perfbench --workload wkt-query|wkb-join|serve-range|all --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// any operation failed its oracle check or errored.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads lists the workload names in run order. BENCHMARK.json gates
// the first two; serve-range runs on request (see README.md).
var workloads = []string{"wkt-query", "wkb-join", "serve-range"}

type config struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool   // self-test sizes (set by the tests): datasets divided by tinyDiv
	perturb bool   // self-test: corrupt one oracle answer before measuring
	outDir  string // where traced runs write their Chrome trace
	out     io.Writer
}

// window is the measured time of one untraced run.
func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run's operation count, failures and metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	errs      []string
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

// check counts one operation and records a failure when ok is false; it
// returns ok.
func (r *result) check(ok bool, format string, args ...any) bool {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.errs) < 20 {
			r.errs = append(r.errs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// count adds n operations of which failed failed, described by what.
func (r *result) count(n, failed int, what string) {
	r.Attempted += n
	r.Failed += failed
	if failed > 0 && len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %d of %d failed the oracle", what, failed, n))
	}
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// runWorkload runs one workload, traced or not, into res.
func runWorkload(name string, cfg config, res *result) error {
	switch name {
	case "wkt-query", "wkb-join":
		b, err := newBatch(name, cfg.seed, cfg.tiny)
		if err != nil {
			return err
		}
		if cfg.perturb {
			if b.s == nil {
				b.hits[0]++ // the total stays right: only the per-query check can fail
			} else {
				b.want++
			}
		}
		if cfg.trace {
			return traceBatch(b, cfg, res)
		}
		b.run(cfg, res)
	case "serve-range":
		w, err := newServe(cfg.seed, cfg.tiny)
		if err != nil {
			return err
		}
		if cfg.perturb {
			w.want[0]++
		}
		if cfg.trace {
			return traceServe(w, cfg, res)
		}
		w.run(cfg, res)
	default:
		return fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloads)
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: wkt-query, wkb-join, serve-range, or all")
	seed := fs.Int64("seed", 1, "seed of the generated datasets and query streams")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1,
		outDir: filepath.Join(".bench_build", "traces"), out: stdout}
	return execute(*workload, cfg, stderr)
}

// execute runs the named workload (or all of them), prints each one's
// metric table and then the result line, and returns the exit status.
func execute(workload string, cfg config, stderr io.Writer) int {
	names := []string{workload}
	if workload == "all" {
		names = workloads
	}
	res := newResult()
	for _, name := range names {
		wres := newResult()
		if err := runWorkload(name, cfg, wres); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		printMetrics(cfg.out, name, wres)
		res.Attempted += wres.Attempted
		res.Failed += wres.Failed
		res.errs = append(res.errs, wres.errs...)
		for k, m := range wres.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			res.Metrics[k] = m
		}
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "perfbench: FAILED:", e)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(cfg.out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics writes a workload's metrics as a name-sorted table, each
// with its unit, followed by the failure accounting.
func printMetrics(w io.Writer, name string, res *result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "== %s\n", name)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-28s %16.6f %s\n", k, m.Value, m.Unit)
	}
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  %-28s %16.6f (%d failed of %d operations)\n", "error_rate", rate, res.Failed, res.Attempted)
}
