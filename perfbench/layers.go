package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/rtree"
	"repro/internal/serve"
	"repro/internal/spatial"
)

// Traced runs. Each workload's traced run has three parts:
//
//  1. Overhead: untraced and traced end-to-end operations, interleaved
//     (harness.trace_overhead), with the traced ones giving the virtual
//     breakdown, the mpi counters and the Go runtime deltas.
//  2. Layers: the pipeline decomposed into its public calls on the same
//     inputs, one span per call per rank — placement, raw mpiio reads,
//     core.ReadStream (with the parser timed inside it), the exchange,
//     rtree.BulkLoad, rtree queries and serve.Session evaluation (with the
//     refine predicate timed inside it).
//  3. Serve probe: the trees of part 2 served by a serve.Service. Session
//     and Service answer the same queries one at a time (the difference is
//     routing, queueing and merging), then an open loop offers highRate.
//
// End-to-end metrics never come from a traced run.

const (
	overheadRounds = 3
	probeSeconds   = 1.0
	probeOpenLoop  = 2 * time.Second
)

// layerCase is the input of parts 2 and 3.
type layerCase struct {
	name     string
	r, s     *input // s is set for the join
	adaptive bool
	// stream is the range-query pool of the serve probe; for the range
	// workloads it is also what the session evaluates in part 2.
	stream queryStream
	// Join answer (s set).
	wantJoin int64
	// resident marks serve-range: its queries arrive at the standing
	// service, so the query-side spans of part 2 belong with the serve
	// probe, not with the set-up (the boot) whose layers part 2 decomposes.
	resident bool
}

// rankLayers is one rank's part-2 measurements; times in seconds.
type rankLayers struct {
	partition, rawRead, read, exchange, build, search, session float64
	virtRead                                                   float64
	rawBytes, parseNs, parseBytes                              int64
	records, replicas, cells                                   int
	exchangeBytes, entries, candidates                         int64
	geomImb, byteImb                                           float64
	refineNs, refineCalls, refineHits                          int64
	hits                                                       []int64 // per query (range workloads)
	joinPairs                                                  int64
}

// traceBatch is the traced run of a batch workload.
func traceBatch(b *batch, cfg config, res *result) error {
	tr := newTracer()
	first, err := b.pass(nil, 0) // warm-up
	if !res.check(err == nil, "%s: warm-up pass: %v", b.name, err) {
		return nil
	}
	b.checkPass(res, first, nil)
	root := tr.begin("traced passes", -1, 0)
	var plain, traced []float64
	var out passOut
	var g0, g1 goStats
	for i := 0; i < overheadRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		o, err := b.pass(nil, 0)
		plain = append(plain, time.Since(t0).Seconds())
		if !res.check(err == nil, "%s: pass: %v", b.name, err) {
			return nil
		}
		b.checkPass(res, o, &first)

		runtime.GC()
		g0 = readGoStats()
		t0 = time.Now()
		sp := tr.begin("pass", -1, root)
		out, err = b.pass(tr, sp)
		tr.end(sp)
		traced = append(traced, time.Since(t0).Seconds())
		g1 = readGoStats()
		if !res.check(err == nil, "%s: traced pass: %v", b.name, err) {
			return nil
		}
		b.checkPass(res, out, &first)
	}
	tr.end(root)
	setVirtual(res, out.bd)
	setGo(res, g0, g1)
	res.set("mpi.msgs", "count", float64(out.msgs))
	res.set("mpi.mb", "MB", float64(out.sent)/1e6)
	res.set("harness.trace_overhead", "ratio", median(traced)/median(plain))

	lc := layerCase{name: b.name, r: b.r, s: b.s, adaptive: b.s != nil, wantJoin: b.want}
	if b.s == nil {
		lc.stream = queryStream{pool: b.queries, want: b.hits}
	} else {
		pool := genQueries(cfg.seed^0x5eed, 256)
		lc.stream = queryStream{pool: pool, want: oracleRange(b.r.geoms, pool)}
	}
	return finishTrace(tr, lc, cfg, res, "batch layers")
}

// traceServe is the traced run of serve-range: its end-to-end operation
// is the boot plus the check batch.
func traceServe(w *serveWL, cfg config, res *result) error {
	tr := newTracer()
	_, first, _, ok := w.bootChecked(nil, 0, res) // warm-up
	if !ok {
		return nil
	}
	root := tr.begin("traced boots", -1, 0)
	var plain, traced []float64
	var rs *resident
	var g0, g1 goStats
	for i := 0; i < overheadRounds; i++ {
		runtime.GC()
		boot, _, _, ok := w.bootChecked(nil, 0, res)
		if !ok {
			return nil
		}
		plain = append(plain, boot)

		runtime.GC()
		g0 = readGoStats()
		sp := tr.begin("boot", -1, root)
		var v float64
		boot, v, rs, ok = w.bootChecked(tr, sp, res)
		tr.end(sp)
		g1 = readGoStats()
		if !ok {
			return nil
		}
		traced = append(traced, boot)
		res.check(math.Float64bits(v) == math.Float64bits(first),
			"serve-range: traced boot's virtual clock %.17g differs from untraced %.17g", v, first)
	}
	tr.end(root)
	var bd spatial.Breakdown
	var msgs, sent int64
	for r := 0; r < ranks; r++ {
		bd.Read = math.Max(bd.Read, rs.readVirt[r])
		bd.Partition = math.Max(bd.Partition, rs.bd[r].Partition)
		bd.Comm = math.Max(bd.Comm, rs.bd[r].Comm)
		bd.Index = math.Max(bd.Index, rs.bd[r].Index)
		bd.Refine = math.Max(bd.Refine, rs.bd[r].Refine)
		msgs += rs.msgs[r]
		sent += rs.sent[r]
	}
	setVirtual(res, bd)
	setGo(res, g0, g1)
	res.set("mpi.msgs", "count", float64(msgs))
	res.set("mpi.mb", "MB", float64(sent)/1e6)
	res.set("harness.trace_overhead", "ratio", median(traced)/median(plain))
	lc := layerCase{name: "serve-range", r: w.r, stream: w.queryStream, resident: true}
	return finishTrace(tr, lc, cfg, res, "set-up layers (the boot, decomposed)")
}

func setVirtual(res *result, bd spatial.Breakdown) {
	res.set("virtual.read_s", "s", bd.Read)
	res.set("virtual.partition_s", "s", bd.Partition)
	res.set("virtual.comm_s", "s", bd.Comm)
	res.set("virtual.index_s", "s", bd.Index)
	res.set("virtual.refine_s", "s", bd.Refine)
}

func setGo(res *result, g0, g1 goStats) {
	res.set("go.alloc_mb", "MB", float64(g1.allocBytes-g0.allocBytes)/1e6)
	res.set("go.gc_cycles", "count", float64(g1.gcCycles-g0.gcCycles))
	res.set("go.gc_pause_s", "s", float64(g1.pauseNs-g0.pauseNs)/1e9)
	res.set("go.heap_live_mb", "MB", float64(g1.heapLive)/1e6)
}

// finishTrace runs parts 2 and 3, prints the self-time tables and writes
// the Chrome trace.
func finishTrace(tr *tracer, lc layerCase, cfg config, res *result, layersTitle string) error {
	layersRoot, queryRoot, probeRoot := runLayers(tr, lc, res)
	tr.printSelfTimes(cfg.out, lc.name+": "+layersTitle, layersRoot)
	if lc.resident {
		tr.printSelfTimes(cfg.out, lc.name+": serving (query layers and serve probe)", queryRoot, probeRoot)
	} else {
		tr.printSelfTimes(cfg.out, lc.name+": serve probe", probeRoot)
	}
	printRatios(cfg, res)
	path := filepath.Join(cfg.outDir, lc.name+".trace.json")
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "%s: Chrome trace (open in Perfetto): %s\n", lc.name, path)
	return nil
}

// printRatios prints each ratio metric with its base.
func printRatios(cfg config, res *result) {
	m := func(k string) float64 { return res.Metrics[k].Value }
	fmt.Fprintf(cfg.out, "  ratios: refine hit ratio %.4f = %0.f hits / %0.f calls; fanout %.3f = sub-requests / requests; "+
		"admitted per round %.3f = sub-requests / rounds; trace overhead %.3f = traced / untraced median\n",
		m("geom.refine_hit_ratio"), m("geom.refine_hits"), m("geom.refine_calls"),
		m("serve.fanout"), m("serve.admitted_per_round"), m("harness.trace_overhead"))
}

// rawRead reads this rank's contiguous share of f in blocks with
// mpiio.File.ReadAt, returning the bytes read.
func rawRead(c *mpi.Comm, f *mpiio.File, block int64) (int64, error) {
	size := f.Size()
	lo := size * int64(c.Rank()) / int64(c.Size())
	hi := size * int64(c.Rank()+1) / int64(c.Size())
	buf := make([]byte, block)
	var n int64
	for off := lo; off < hi; off += block {
		k, err := f.ReadAt(buf[:min(block, hi-off)], off)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// runLayers runs parts 2 and 3 and sets their metrics. It returns the
// root spans of part 2's build-side and query-side spans (the same span
// unless lc.resident) and of the serve probe.
func runLayers(tr *tracer, lc layerCase, res *result) (layersRoot, queryRoot, probeRoot int) {
	var st [ranks]rankLayers
	direct := make([]*serve.Session, ranks)
	svc := serve.NewService(ranks)
	errc := make(chan error, 1)
	layersRoot = tr.begin("layers", -1, 0)
	queryRoot = layersRoot
	if lc.resident {
		queryRoot = tr.begin("query layers", -1, 0)
	}
	go func() {
		err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
			trees, g, err := layersRank(c, tr, layersRoot, queryRoot, lc, &st[c.Rank()])
			if err != nil {
				return err
			}
			direct[c.Rank()] = serve.NewSession(serve.SessionConfig{Partition: g, Rank: c.Rank(), Size: c.Size(),
				Scale: c.Config().Scale(), Trees: trees})
			spatial.Serve(c, svc, g, trees, spatial.JoinOptions{})
			return nil
		})
		svc.Close()
		errc <- err
	}()
	select {
	case <-svc.Ready():
	case <-svc.Closed():
	}
	tr.end(layersRoot)
	tr.end(queryRoot)
	probeRoot = tr.begin("serve probe", -1, 0)
	var next uint64
	var sess, rng []float64
	var failed int
	select {
	case <-svc.Closed(): // the world failed; skip the probe
	default:
		noop := func(float64) {}
		deadline := time.Now().Add(time.Duration(probeSeconds * float64(time.Second)))
		// Each query goes both ways; the order alternates so neither side
		// always finds the query's data warm in cache.
		direct1 := func(q geom.Envelope) (pairs int64) {
			sp := tr.beginReq("serve.Session.Range", -1, probeRoot, int64(next))
			t0 := time.Now()
			for _, s := range direct {
				pairs += s.Range(q, noop, nil)
			}
			sess = append(sess, float64(time.Since(t0))/1e3)
			tr.end(sp)
			return pairs
		}
		service1 := func(q geom.Envelope) (int64, error) {
			sp := tr.beginReq("serve.Service.Range", -1, probeRoot, int64(next))
			t0 := time.Now()
			r, err := svc.Range(next, q)
			rng = append(rng, float64(time.Since(t0))/1e3)
			tr.end(sp)
			return r.Pairs, err
		}
		for i := 0; i < 32 || time.Now().Before(deadline); i++ {
			qi := i % len(lc.stream.pool)
			q := lc.stream.pool[qi]
			var pairs, served int64
			var err error
			if i%2 == 0 {
				pairs = direct1(q)
				served, err = service1(q)
			} else {
				served, err = service1(q)
				pairs = direct1(q)
			}
			next++
			if pairs != lc.stream.want[qi] || err != nil || served != lc.stream.want[qi] {
				failed++
			}
		}
		res.count(len(rng), failed, lc.name+" serve probe")
		ol := lc.stream.openLoop(svc, highRate, probeOpenLoop, &next)
		res.count(len(ol.lat), ol.failed, lc.name+" serve probe open loop")
		res.set("serve.lat_p99_us.high", "us", quantile(ol.lat, 0.99))
		res.set("harness.gen_late_us.p99", "us", quantile(ol.late, 0.99))
	}
	tr.end(probeRoot)
	svc.Close()
	err := <-errc
	if !res.check(err == nil, "%s layers: %v", lc.name, err) {
		return layersRoot, queryRoot, probeRoot
	}
	var rounds, admitted int
	for r := 0; r < ranks; r++ {
		s := svc.Stats(r)
		rounds += s.Rounds
		admitted += s.Admitted
	}
	res.set("serve.range_us.p50", "us", quantile(rng, 0.5))
	res.set("serve.range_us.p99", "us", quantile(rng, 0.99))
	res.set("serve.session_us.p50", "us", quantile(sess, 0.5))
	res.set("serve.session_us.p99", "us", quantile(sess, 0.99))
	res.set("serve.overhead_us.p50", "us", quantile(rng, 0.5)-quantile(sess, 0.5))
	res.set("serve.admitted_per_round", "ratio", float64(admitted)/float64(max(rounds, 1)))
	res.set("serve.fanout", "ratio", float64(admitted)/float64(max(next, 1)))
	setLayerMetrics(lc, st, res)
	return layersRoot, queryRoot, probeRoot
}

// layersRank is one rank's part 2. It returns the cell trees and the
// partition for the serve probe.
func layersRank(c *mpi.Comm, tr *tracer, root, queryRoot int, lc layerCase, st *rankLayers) (map[int]*rtree.Tree[geom.Geometry], grid.Partition, error) {
	rank := c.Rank()
	inputs := []*input{lc.r}
	if lc.s != nil {
		inputs = append(inputs, lc.s)
	}
	files := make([]*mpiio.File, len(inputs))
	for i, in := range inputs {
		files[i] = mpiio.Open(c, in.file, mpiio.Hints{})
	}

	// Placement.
	var g grid.Partition
	var err error
	if lc.adaptive {
		sp := tr.begin("core.SamplePartition", rank, root)
		g, err = core.SamplePartition(c, files[0], lc.r.newParser(), lc.r.opt, samplePartition(files[0]))
		tr.end(sp)
		st.partition = tr.dur(sp)
	} else {
		sp := tr.begin("grid.New", rank, root)
		g, err = grid.New(world, 16, 16) // the 256-cell grid of the one-pass pipelines
		tr.end(sp)
		st.partition = tr.dur(sp)
	}
	if err != nil {
		return nil, nil, err
	}
	st.cells = g.NumCells()

	// Raw reads, then the reader over the same files.
	locals := make([][]geom.Geometry, len(inputs))
	for i, in := range inputs {
		sp := tr.begin("mpiio.File.ReadAt", rank, root)
		v0 := c.Now()
		n, err := rawRead(c, files[i], in.opt.BlockSize)
		st.virtRead += c.Now() - v0
		tr.end(sp)
		st.rawRead += tr.dur(sp)
		st.rawBytes += n
		if err != nil {
			return nil, nil, err
		}

		acc := &leafAcc{}
		p := &timedParser{p: in.newParser(), acc: acc}
		sp = tr.begin("core.ReadStream", rank, root)
		rstats, err := core.ReadStream(c, files[i], p, in.opt, func(batch []geom.Geometry) error {
			locals[i] = append(locals[i], batch...)
			return nil
		})
		tr.end(sp)
		tr.leaf(parseSpan(in), sp, acc)
		st.read += tr.dur(sp)
		st.parseNs += acc.totalNs.Load()
		st.parseBytes += acc.bytes.Load()
		st.records += rstats.Records
		if err != nil {
			return nil, nil, err
		}
	}

	// Exchange each input over the partition.
	cells := make([]map[int][]geom.Geometry, len(inputs))
	for i := range inputs {
		pt := &core.Partitioner{Grid: g}
		sp := tr.begin("core.Partitioner.Exchange", rank, root)
		var est core.ExchangeStats
		cells[i], est, err = pt.Exchange(c, locals[i])
		tr.end(sp)
		st.exchange += tr.dur(sp)
		if err != nil {
			return nil, nil, err
		}
		st.exchangeBytes += est.BytesSent
		st.replicas += est.Replicas
		st.geomImb = math.Max(st.geomImb, est.GeomImbalance)
		st.byteImb = math.Max(st.byteImb, est.ByteImbalance)
	}

	// Bulk-load one tree per owned cell of the first input.
	sp := tr.begin("rtree.BulkLoad", rank, root)
	trees := make(map[int]*rtree.Tree[geom.Geometry])
	for _, cell := range sortedCells(cells[0]) {
		gs := cells[0][cell]
		items := make([]rtree.Item[geom.Geometry], len(gs))
		for i, gg := range gs {
			items[i] = rtree.Item[geom.Geometry]{Env: gg.Envelope(), Value: gg}
		}
		trees[cell] = rtree.BulkLoad(items)
		st.entries += int64(len(gs))
	}
	tr.end(sp)
	st.build = tr.dur(sp)

	// Filter: the tree queries alone.
	rankFor := grid.MappingOf(g)
	sp = tr.begin("rtree.Tree.Query", rank, queryRoot)
	if lc.s == nil {
		for _, q := range lc.stream.pool {
			for _, cell := range g.CellsFor(q) {
				if t := trees[cell]; t != nil && rankFor(cell, c.Size()) == rank {
					st.candidates += int64(len(t.Query(q)))
				}
			}
		}
	} else {
		for _, cell := range sortedCells(cells[1]) {
			if t := trees[cell]; t != nil {
				for _, sg := range cells[1][cell] {
					st.candidates += int64(len(t.Query(sg.Envelope())))
				}
			}
		}
	}
	tr.end(sp)
	st.search = tr.dur(sp)

	// Filter and refine through the evaluation core, predicate timed.
	racc := &leafAcc{}
	sess := serve.NewSession(serve.SessionConfig{Partition: g, Rank: rank, Size: c.Size(),
		Scale: c.Config().Scale(), Trees: trees, Predicate: racc.pred})
	noop := func(float64) {}
	if lc.s == nil {
		sp = tr.begin("serve.Session.Range", rank, queryRoot)
		st.hits = make([]int64, len(lc.stream.pool))
		for qi, q := range lc.stream.pool {
			st.hits[qi] = sess.Range(q, noop, nil)
		}
	} else {
		sp = tr.begin("serve.Session.JoinCell", rank, queryRoot)
		for _, cell := range sortedCells(cells[1]) {
			for _, sg := range cells[1][cell] {
				st.joinPairs += sess.JoinCell(cell, sg, noop, nil)
			}
		}
	}
	tr.end(sp)
	tr.leaf("geom.Intersects", sp, racc)
	st.session = tr.dur(sp)
	st.refineNs, st.refineCalls, st.refineHits = racc.totalNs.Load(), racc.totalCalls.Load(), racc.hits.Load()
	return trees, g, nil
}

func sortedCells(m map[int][]geom.Geometry) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// setLayerMetrics sums the ranks' part-2 measurements into metrics and
// checks the part-2 answers against the oracle.
func setLayerMetrics(lc layerCase, st [ranks]rankLayers, res *result) {
	var t rankLayers
	var maxExchange float64
	for _, s := range st {
		t.partition += s.partition
		t.rawRead += s.rawRead
		t.read += s.read
		t.exchange += s.exchange
		t.build += s.build
		t.search += s.search
		t.virtRead = math.Max(t.virtRead, s.virtRead)
		t.rawBytes += s.rawBytes
		t.parseNs += s.parseNs
		t.parseBytes += s.parseBytes
		t.records += s.records
		t.replicas += s.replicas
		t.exchangeBytes += s.exchangeBytes
		t.entries += s.entries
		t.candidates += s.candidates
		t.refineNs += s.refineNs
		t.refineCalls += s.refineCalls
		t.refineHits += s.refineHits
		t.joinPairs += s.joinPairs
		maxExchange = math.Max(maxExchange, s.exchange)
	}
	var wait float64
	for _, s := range st {
		wait += (maxExchange - s.exchange) / ranks
	}
	if lc.s == nil {
		failed := 0
		for qi, want := range lc.stream.want {
			var got int64
			for _, s := range st {
				got += s.hits[qi]
			}
			if got != want {
				failed++
			}
		}
		res.count(len(lc.stream.want), failed, lc.name+" session range queries")
	} else {
		res.check(t.joinPairs == lc.wantJoin, "%s: session join answered %d pairs, oracle %d", lc.name, t.joinPairs, lc.wantJoin)
	}
	parse := float64(t.parseNs) / 1e9
	res.set("mpiio.read_s", "s", t.rawRead)
	res.set("mpiio.read_mb", "MB", float64(t.rawBytes)/1e6)
	res.set("mpiio.virtual_read_s", "s", t.virtRead)
	res.set("core.read_s", "s", t.read)
	res.set("core.read_self_s", "s", t.read-parse-t.rawRead)
	res.set("core.records", "count", float64(t.records))
	res.set("parser.parse_s", "s", parse)
	res.set("parser.ns_per_record", "ns", float64(t.parseNs)/float64(max(t.records, 1)))
	res.set("parser.mbps", "MB/s", float64(t.parseBytes)/1e6/parse)
	res.set("core.exchange_s", "s", t.exchange)
	res.set("core.exchange_wait_s", "s", wait)
	res.set("core.exchange_mb", "MB", float64(t.exchangeBytes)/1e6)
	res.set("core.replicas", "count", float64(t.replicas))
	res.set("core.geom_imbalance", "ratio", st[0].geomImb)
	res.set("core.byte_imbalance", "ratio", st[0].byteImb)
	res.set("core.partition_s", "s", t.partition)
	res.set("grid.cells", "count", float64(st[0].cells))
	res.set("rtree.build_s", "s", t.build)
	res.set("rtree.entries", "count", float64(t.entries))
	res.set("rtree.search_s", "s", t.search)
	res.set("rtree.candidates", "count", float64(t.candidates))
	res.set("geom.refine_s", "s", float64(t.refineNs)/1e9)
	res.set("geom.refine_calls", "count", float64(t.refineCalls))
	res.set("geom.refine_hits", "count", float64(t.refineHits))
	res.set("geom.refine_hit_ratio", "ratio", float64(t.refineHits)/float64(max(t.refineCalls, 1)))
}
