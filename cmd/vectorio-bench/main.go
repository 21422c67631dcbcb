// Command vectorio-bench regenerates the paper's evaluation artifacts: every
// table and figure of §5, selected by experiment id.
//
// Usage:
//
//	vectorio-bench -exp fig8            # one experiment
//	vectorio-bench -exp all             # the full evaluation
//	vectorio-bench -list                # show experiment ids
//	vectorio-bench -exp fig17 -scale-mul 4 -quick
//	vectorio-bench -bench-ingest        # wall-clock ingest baseline -> BENCH_ingest.json
//	vectorio-bench -bench-query         # refresh the streamed-vs-materialized index rows
//	vectorio-bench -bench-skew          # refresh the uniform-vs-adaptive partition rows
//	vectorio-bench -bench-serve         # refresh the resident query-service rows
//
// -scale-mul multiplies every dataset's default scale factor (larger means
// smaller real files and faster runs); -quick shrinks parameter sweeps.
//
// -bench-ingest measures the ingest hot path (WKT parsing and end-to-end
// ReadPartition) in real wall-clock time with allocation counts and writes
// the trajectory artifact BENCH_ingest.json, comparing against the frozen
// seed-parser baseline.
//
// -bench-query measures only the file-to-query rows — the streamed
// (BuildIndexFiles/RangeQueryFiles) pipeline against the materialized
// composition, throughput and peak heap — and merges them into an existing
// BENCH_ingest.json, leaving every other section untouched. See
// internal/bench/README.md for how and when to regenerate.
//
// -bench-skew measures only the skew rows — read+partition+exchange on
// skewed datasets under the uniform grid and under the sample-built
// adaptive partition, reporting each placement's max/mean per-rank load
// imbalance — and merges them into an existing BENCH_ingest.json the same
// way.
//
// -bench-serve measures only the serve rows — a resident query service
// standing over the per-rank cell indexes, answering thousands of range
// queries from concurrent client goroutines, reporting QPS and p50/p95/p99
// latency under both partition families — and merges them into an existing
// BENCH_ingest.json the same way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1..table3, fig8..fig20) or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	scaleMul := flag.Float64("scale-mul", 1, "multiply dataset scale factors (bigger = faster, smaller files)")
	quick := flag.Bool("quick", false, "shrink parameter sweeps")
	ingest := flag.Bool("bench-ingest", false, "measure the wall-clock ingest baseline and write BENCH_ingest.json")
	query := flag.Bool("bench-query", false, "measure the streamed-vs-materialized file-to-query rows and merge them into BENCH_ingest.json")
	skew := flag.Bool("bench-skew", false, "measure the uniform-vs-adaptive partition rows on skewed datasets and merge them into BENCH_ingest.json")
	srv := flag.Bool("bench-serve", false, "measure the resident query-service rows (QPS, latency percentiles) and merge them into BENCH_ingest.json")
	ingestOut := flag.String("ingest-out", "BENCH_ingest.json", "output path for -bench-ingest / -bench-query / -bench-skew / -bench-serve")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.Config{ScaleMul: *scaleMul, Quick: *quick}

	if *query || *skew || *srv {
		what := "bench-query"
		switch {
		case *skew:
			what = "bench-skew"
		case *srv:
			what = "bench-serve"
		}
		fail := func(err error) {
			fmt.Fprintln(os.Stderr, "vectorio-bench:", what+":", err)
			os.Exit(1)
		}
		// Merge into the existing artifact so the parser/ingest/exchange
		// sections keep their provenance; start fresh only when there
		// genuinely is none — any other read failure must not silently
		// overwrite the sections these flags promise to preserve.
		var rep bench.IngestReport
		payload, err := os.ReadFile(*ingestOut)
		switch {
		case err == nil:
			if err := json.Unmarshal(payload, &rep); err != nil {
				fail(fmt.Errorf("parsing existing %s: %w", *ingestOut, err))
			}
		case !os.IsNotExist(err):
			fail(fmt.Errorf("reading existing %s: %w", *ingestOut, err))
		}
		var updated []string
		if *query {
			rows, err := bench.RunQueryReport(cfg)
			if err != nil {
				fail(err)
			}
			rep.IndexQuery = rows
			updated = append(updated, "index_query")
		}
		if *skew {
			rows, err := bench.RunSkewReport(cfg)
			if err != nil {
				fail(err)
			}
			rep.Skew = rows
			updated = append(updated, "skew")
		}
		if *srv {
			rows, err := bench.RunServeReport(cfg)
			if err != nil {
				fail(err)
			}
			rep.Serve = rows
			updated = append(updated, "serve")
		}
		rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		if rep.GoVersion == "" {
			rep.GoVersion = runtime.Version()
			rep.NumCPU = runtime.NumCPU()
		}
		rep.IngestTable().Print(os.Stdout)
		out, err := rep.IngestJSON()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*ingestOut, out, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("   (updated %s rows in %s)\n", strings.Join(updated, " and "), *ingestOut)
		return
	}

	if *ingest {
		rep, err := bench.RunIngestReport(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vectorio-bench: bench-ingest:", err)
			os.Exit(1)
		}
		rep.IngestTable().Print(os.Stdout)
		payload, err := rep.IngestJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vectorio-bench: bench-ingest:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*ingestOut, payload, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "vectorio-bench: bench-ingest:", err)
			os.Exit(1)
		}
		fmt.Printf("   (wrote %s)\n", *ingestOut)
		return
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		start := time.Now()
		tbl, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vectorio-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		tbl.Print(os.Stdout)
		fmt.Printf("   (%s regenerated in %.1fs wall time)\n\n", id, time.Since(start).Seconds())
	}
}
