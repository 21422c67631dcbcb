package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/spatial"
)

// ranks is the simulated world size of every workload: the host's two
// CPUs, one rank goroutine each.
const ranks = 2

// gridCells is the uniform grid of the WKT workloads (16x16).
const gridCells = 256

// setupRounds is how many cold passes the set-up phase of a batch
// workload runs; setup_s is their median.
const setupRounds = 3

// samplePartition is the adaptive placement options of the join: an
// eighth of the file at stride 4 with 256 bins per axis, aiming at 64
// cells per rank. The skew rows of BENCH_ingest.json sample a quarter at 4
// ranks; at 2 ranks a quarter of the lakes file is a single read over the
// simulated 2 GB ROMIO limit. The default 8 cells per rank leaves 2 ranks
// with about 16 cells, and the refine work one rank gets then swung the
// pass time by half from seed to seed.
func samplePartition(f *mpiio.File) core.PartitionOptions {
	return core.PartitionOptions{Envelope: &world, SampleBytes: f.Size() / 8, SampleStride: 4,
		HistogramSide: 256, TargetCellsPerRank: 64}
}

// parseSpan names the parser leaf of an input by its format.
func parseSpan(in *input) string {
	if in.enc == datagen.EncodingWKB {
		return "wkb.Parse"
	}
	return "wkt.Parse"
}

// batch is a workload whose operation is one full pipeline pass:
// wkt-query (read, partition, index, 64 range queries) or wkb-join
// (sample, partition, index, join).
type batch struct {
	name    string
	r, s    *input          // s is nil for wkt-query
	queries []geom.Envelope // wkt-query only
	qIndex  map[geom.Envelope]int
	hits    []int64 // wkt-query: oracle hit count per query
	want    int64   // oracle answer: total range hits or join pairs
	bytes   int64   // input bytes read per pass
}

func newBatch(name string, seed int64, tiny bool) (*batch, error) {
	div := 1.0
	if tiny {
		div = tinyDiv
	}
	b := &batch{name: name}
	var err error
	switch name {
	case "wkt-query":
		if b.r, err = genInput(datagen.Lakes(), seed, lakesWKTScale*div, datagen.EncodingWKT); err != nil {
			return nil, err
		}
		b.queries = genQueries(seed, 64)
		b.qIndex = make(map[geom.Envelope]int, len(b.queries))
		for i, q := range b.queries {
			b.qIndex[q] = i
		}
		if len(b.qIndex) != len(b.queries) {
			return nil, fmt.Errorf("%s: query batch repeats a query", name)
		}
		b.hits = oracleRange(b.r.geoms, b.queries)
		b.want = sum(b.hits)
		b.bytes = b.r.file.Size()
	case "wkb-join":
		if b.s, err = genInput(datagen.Cemetery(), seed, cemeteryWKBScale*div, datagen.EncodingWKB); err != nil {
			return nil, err
		}
		if b.r, err = genJoinLakes(lakesWKBScale*div, b.s.geoms); err != nil {
			return nil, err
		}
		b.want = oracleJoin(b.r.geoms, b.s.geoms)
		b.bytes = b.r.file.Size() + b.s.file.Size()
	default:
		return nil, fmt.Errorf("unknown batch workload %q", name)
	}
	return b, nil
}

// passOut is what one pass reports.
type passOut struct {
	pairs      int64
	hits       []int64           // wkt-query: accepted matches per query
	virtual    float64           // final virtual clock, max over ranks
	bd         spatial.Breakdown // per-phase maxima over ranks
	msgs, sent int64             // Comm.MsgsSent/BytesSent deltas, summed
}

// pass runs the workload once. With a tracer it records a span per rank
// around each public pipeline call, and the parser and the refine
// predicate are wrapped with timers whose sums become aggregated leaf
// spans. On wkt-query the predicate also counts each rank's accepted
// matches per query: the pipeline suppresses duplicates before it refines,
// so the counts are the per-query answers.
func (b *batch) pass(tr *tracer, parent int) (passOut, error) {
	var (
		bds   [ranks]spatial.Breakdown
		nows  [ranks]float64
		msgs  [ranks]int64
		sents [ranks]int64
		hits  [ranks][]int64
	)
	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		rank := c.Rank()
		m0, s0 := c.MsgsSent(), c.BytesSent()
		var p core.Parser = b.r.newParser()
		var pred func(a, b geom.Geometry) bool
		var pacc, racc *leafAcc
		if tr != nil {
			pacc, racc = &leafAcc{}, &leafAcc{}
			p = &timedParser{p: p, acc: pacc}
			pred = racc.pred
		}
		mfR := mpiio.Open(c, b.r.file, mpiio.Hints{})
		var bd spatial.Breakdown
		var err error
		if b.s == nil {
			hits[rank] = make([]int64, len(b.queries)+1) // last: unknown query
			pred = b.countingPred(pred, hits[rank])
			sp := tr.begin("spatial.RangeQueryFiles", rank, parent)
			bd, err = spatial.RangeQueryFiles(c, mfR, p, b.r.opt, b.queries,
				spatial.JoinOptions{GridCells: gridCells, Envelope: &world, Predicate: pred})
			tr.end(sp)
			tr.leaf(parseSpan(b.r), sp, pacc)
			tr.leaf("geom.Intersects", sp, racc)
		} else {
			mfS := mpiio.Open(c, b.s.file, mpiio.Hints{})
			sp := tr.begin("core.SamplePartition", rank, parent)
			g, perr := core.SamplePartition(c, mfR, p, b.r.opt, samplePartition(mfR))
			tr.end(sp)
			tr.leaf(parseSpan(b.r), sp, pacc)
			if perr != nil {
				return perr
			}
			sp = tr.begin("spatial.JoinFiles", rank, parent)
			bd, err = spatial.JoinFiles(c, mfR, mfS, p, b.r.opt, spatial.JoinOptions{Partition: g, Predicate: pred})
			tr.end(sp)
			tr.leaf(parseSpan(b.r), sp, pacc)
			tr.leaf("geom.Intersects", sp, racc)
		}
		if err != nil {
			return err
		}
		bds[rank], nows[rank] = bd, c.Now()
		msgs[rank], sents[rank] = c.MsgsSent()-m0, c.BytesSent()-s0
		return nil
	})
	if err != nil {
		return passOut{}, err
	}
	var out passOut
	if b.s == nil {
		out.hits = make([]int64, len(b.queries)+1)
	}
	for r := 0; r < ranks; r++ {
		bd := bds[r]
		if b.s == nil {
			out.pairs += bd.Pairs // RangeQueryFiles reports per-rank matches
			for i, n := range hits[r] {
				out.hits[i] += n
			}
		} else {
			out.pairs = bd.Pairs // JoinFiles aggregates across ranks
		}
		out.virtual = math.Max(out.virtual, nows[r])
		out.bd.Read = math.Max(out.bd.Read, bd.Read)
		out.bd.Partition = math.Max(out.bd.Partition, bd.Partition)
		out.bd.Comm = math.Max(out.bd.Comm, bd.Comm)
		out.bd.Index = math.Max(out.bd.Index, bd.Index)
		out.bd.Refine = math.Max(out.bd.Refine, bd.Refine)
		out.msgs += msgs[r]
		out.sent += sents[r]
	}
	return out, nil
}

// countingPred wraps the refine predicate (nil: geom.Intersects) to count
// each accepted match under the query it answers: the probe is the query's
// polygon, whose envelope is the query. Matches of a probe that is no query
// count in hits[len(b.queries)].
func (b *batch) countingPred(inner func(a, b geom.Geometry) bool, hits []int64) func(a, b geom.Geometry) bool {
	if inner == nil {
		inner = geom.Intersects
	}
	return func(g, probe geom.Geometry) bool {
		ok := inner(g, probe)
		if ok {
			i, known := b.qIndex[probe.Envelope()]
			if !known {
				i = len(b.queries)
			}
			hits[i]++
		}
		return ok
	}
}

// checkPass compares a pass with the oracle — on wkt-query query by query —
// and, after the first pass, its virtual clock with the first pass's, bit
// for bit.
func (b *batch) checkPass(res *result, o passOut, first *passOut) {
	ok := o.pairs == b.want
	if b.s == nil {
		ok = ok && o.hits[len(b.queries)] == 0 // no match of an unknown query
		for i, want := range b.hits {
			ok = ok && o.hits[i] == want
		}
	}
	res.check(ok, "%s: pass answered %d pairs, per query %v; oracle %d, per query %v",
		b.name, o.pairs, o.hits, b.want, b.hits)
	if first != nil {
		res.check(math.Float64bits(o.virtual) == math.Float64bits(first.virtual),
			"%s: virtual clock %.17g differs from first pass %.17g", b.name, o.virtual, first.virtual)
	}
}

// run measures the end-to-end metrics: setupRounds cold passes (the OS is
// handed the freed heap before each, so the pass faults its memory back in
// as a fresh process would), then timed passes until the window closes.
func (b *batch) run(cfg config, res *result) {
	var first *passOut
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		o, err := b.pass(nil, 0)
		setups = append(setups, time.Since(t0).Seconds())
		if !res.check(err == nil, "%s: setup pass: %v", b.name, err) {
			return
		}
		b.checkPass(res, o, first)
		if first == nil {
			first = &o
		}
	}
	var walls, heaps []float64
	deadline := time.Now().Add(cfg.window())
	for len(walls) < 3 || time.Now().Before(deadline) {
		h := startHeap()
		t0 := time.Now()
		o, err := b.pass(nil, 0)
		wall := time.Since(t0).Seconds()
		heaps = append(heaps, h.done())
		if !res.check(err == nil, "%s: pass: %v", b.name, err) {
			return
		}
		b.checkPass(res, o, first)
		walls = append(walls, wall)
	}
	med := median(walls)
	res.set("setup_s", "s", median(setups))
	res.set("input_mbps", "MB/s", float64(b.bytes)/1e6/med)
	res.set("virtual_s", "s", first.virtual)
	res.set("peak_heap_mb", "MB", median(heaps))
	fmt.Fprintf(cfg.out, "%s: %d passes, median %.4fs, %d pairs per pass (oracle %d)\n",
		b.name, len(walls), med, first.pairs, b.want)
}
