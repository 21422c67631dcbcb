// Package spatial implements the paper's filter-and-refine framework (§4.3)
// and the end-to-end workloads of its evaluation (§5.2): distributed
// spatial join — the exemplar application — plus parallel spatial indexing
// and batch range query. It composes the MPI-Vector-IO pieces: parallel
// file reading, MPI_UNION grid sizing, grid partitioning with all-to-all
// exchange, per-cell R-tree filtering, and exact-geometry refinement with
// duplicate avoidance.
package spatial

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/rtree"
	"repro/internal/serve"
)

// Breakdown is the per-phase timing the paper plots in Figures 17-20. On a
// single rank it holds that rank's times; Aggregate turns it into the
// paper's reported quantity — the maximum across ranks per phase (so the
// total is typically less than the sum, exactly as the paper notes).
type Breakdown struct {
	Read      float64 // parallel I/O + parsing
	Partition float64 // projecting geometries onto grid cells
	Comm      float64 // serialization + all-to-all exchange
	Index     float64 // per-cell R-tree construction
	Refine    float64 // filter queries + exact intersection tests
	Total     float64 // elapsed virtual time (max across ranks)

	// GeomImbalance and ByteImbalance are the exchange load-balance
	// factors (max-rank load over mean-rank load, 1.0 = perfectly even)
	// from core.ExchangeStats — the quantity the skew-aware partitioner
	// exists to shrink. Already rank-identical (the Exchanger reduces them
	// at Finish); a workload with several exchanges reports the worst.
	GeomImbalance float64
	ByteImbalance float64

	Pairs       int64 // join result pairs (summed across ranks)
	Indexed     int64 // geometries inserted into cell indexes (summed)
	Quarantined int64 // exchange frames dropped under SkipBadFrames (summed)
}

// Aggregate reduces a per-rank breakdown to the paper's reporting
// convention: per-phase maxima and summed counters, identical on all ranks.
func (b Breakdown) Aggregate(c *mpi.Comm) (Breakdown, error) {
	times := []float64{b.Read, b.Partition, b.Comm, b.Index, b.Refine, b.Total,
		b.GeomImbalance, b.ByteImbalance}
	buf := make([]byte, 8*len(times))
	for i, v := range times {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	maxed, err := c.Allreduce(buf, len(times), mpi.Float64, mpi.OpMaxFloat64)
	if err != nil {
		return b, err
	}
	counts := make([]byte, 24)
	binary.LittleEndian.PutUint64(counts[0:], uint64(b.Pairs))
	binary.LittleEndian.PutUint64(counts[8:], uint64(b.Indexed))
	binary.LittleEndian.PutUint64(counts[16:], uint64(b.Quarantined))
	summed, err := c.Allreduce(counts, 3, mpi.Int64, mpi.OpSumInt64)
	if err != nil {
		return b, err
	}
	get := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(maxed[i*8:]))
	}
	return Breakdown{
		Read: get(0), Partition: get(1), Comm: get(2),
		Index: get(3), Refine: get(4), Total: get(5),
		GeomImbalance: get(6), ByteImbalance: get(7),
		Pairs:       int64(binary.LittleEndian.Uint64(summed[0:])),
		Indexed:     int64(binary.LittleEndian.Uint64(summed[8:])),
		Quarantined: int64(binary.LittleEndian.Uint64(summed[16:])),
	}, nil
}

// JoinOptions configures a distributed spatial join.
type JoinOptions struct {
	// GridCells is the target number of grid cells (laid out near-square);
	// the granularity knob of Figure 17. Zero defaults to 1024.
	GridCells int
	// WindowCells bounds cells per exchange phase (sliding window). Zero
	// exchanges in one phase.
	WindowCells int
	// Predicate is the join predicate θ; nil means geom.Intersects.
	Predicate func(a, b geom.Geometry) bool
	// KeepDuplicates disables reference-point duplicate avoidance (only
	// used to demonstrate why it is needed).
	KeepDuplicates bool
	// Envelope, when non-nil, is a caller-known global data envelope (from
	// dataset metadata, a previous run, or a catalog). JoinFiles then fixes
	// the grid up front and runs the one-pass streaming pipeline — reading,
	// partitioning, and exchanging overlap instead of running as separate
	// passes, and the full local geometry slices never exist. Nil keeps the
	// two-pass path: read everything, derive the envelope with the
	// MPI_UNION Allreduce, then exchange. Geometries outside the supplied
	// envelope still partition correctly (projections clamp to the border
	// cells), but a misleadingly small envelope skews the grid, so supply
	// the real bounds or nil.
	Envelope *geom.Envelope
	// Partition, when non-nil, replaces the uniform grid entirely — cell
	// layout AND cell-to-rank placement come from it (a skew-aware
	// grid.Adaptive from core.SamplePartition, typically). It overrides
	// GridCells and Envelope, skips the MPI_UNION reduction, and — like a
	// supplied Envelope — enables the one-pass streamed pipeline. Must be
	// identical on every rank.
	Partition grid.Partition
	// SkipBadFrames forwards core.Partitioner.SkipBadFrames: received
	// exchange frames that fail to decode are quarantined and counted in
	// Breakdown.Quarantined instead of failing the workload.
	SkipBadFrames bool
}

func (o JoinOptions) cells() int {
	if o.GridCells > 0 {
		return o.GridCells
	}
	return 1024
}

// uniformPartition builds the default partition — a near-square uniform
// grid of about `cells` cells over the global envelope.
//
//vet:uniform — pure function of the rank-uniform envelope and cell count
func uniformPartition(global geom.Envelope, cells int) (grid.Partition, error) {
	cols, rows := squareDims(cells)
	g, err := grid.New(global, cols, rows)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// squareDims factors n into cols x rows as near-square as possible,
// covering at least n cells.
func squareDims(n int) (cols, rows int) {
	cols = int(math.Ceil(math.Sqrt(float64(n))))
	if cols < 1 {
		cols = 1
	}
	rows = (n + cols - 1) / cols
	if rows < 1 {
		rows = 1
	}
	return cols, rows
}

// Join performs the distributed spatial join of the paper's §5.2 on
// already-read local geometry batches: grid dimensions from MPI_UNION,
// global spatial partitioning of both datasets, per-cell R-tree filter on
// R, exact refinement with duplicate avoidance. Returns this rank's
// un-aggregated breakdown. All ranks must call it collectively.
func Join(c *mpi.Comm, localR, localS []geom.Geometry, opt JoinOptions) (Breakdown, error) {
	var bd Breakdown
	start := c.Now()

	// Partition: the caller-supplied one verbatim, or a uniform grid over
	// the MPI_UNION envelope reduction (§4.2.2). The Partition option is
	// rank-uniform configuration, so every rank takes the same branch and
	// the reduction is skipped (or run) collectively.
	p := opt.Partition
	if p == nil {
		global, err := core.GlobalEnvelope(c, core.LocalEnvelope(localR).Union(core.LocalEnvelope(localS)))
		if err != nil {
			return bd, fmt.Errorf("spatial: global envelope: %w", err)
		}
		if global.IsEmpty() {
			bd.Total = c.Now() - start
			return bd, nil
		}
		if p, err = uniformPartition(global, opt.cells()); err != nil {
			return bd, fmt.Errorf("spatial: grid: %w", err)
		}
	}

	pt := &core.Partitioner{Grid: p, WindowCells: opt.WindowCells, SkipBadFrames: opt.SkipBadFrames}
	cellsR, statsR, err := pt.Exchange(c, localR)
	if err != nil {
		return bd, fmt.Errorf("spatial: exchange R: %w", err)
	}
	cellsS, statsS, err := pt.Exchange(c, localS)
	if err != nil {
		return bd, fmt.Errorf("spatial: exchange S: %w", err)
	}
	bd.Partition = statsR.ProjectTime + statsS.ProjectTime
	bd.Comm = statsR.CommTime + statsS.CommTime
	bd.Quarantined = int64(statsR.FramesQuarantined + statsS.FramesQuarantined)
	bd.GeomImbalance = math.Max(statsR.GeomImbalance, statsS.GeomImbalance)
	bd.ByteImbalance = math.Max(statsR.ByteImbalance, statsS.ByteImbalance)

	joinCells(c, p, cellsR, cellsS, opt, &bd)
	bd.Total = c.Now() - start
	return bd, nil
}

// joinCells runs the filter and refine phases of the distributed join over
// already-partitioned cells, accumulating timings and counters into bd. It
// is the shared back half of Join (two-pass) and the streamed JoinFiles
// (one-pass). The refine loop itself lives in serve.Session — the same
// filter-and-refine core the resident query service evaluates — with the
// costs charged inline on this rank's clock.
func joinCells(c *mpi.Comm, g grid.Partition, cellsR, cellsS map[int][]geom.Geometry, opt JoinOptions, bd *Breakdown) {
	scale := c.Config().Scale()

	// Filter phase: per-cell R-tree over the R side. One real geometry
	// stands for `scale` full-size ones, inserted into a tree that is
	// `scale` times larger.
	t0 := c.Now()
	trees := buildCellTrees(c, cellsR, scale, &bd.Indexed)
	bd.Index = c.Now() - t0

	// Refine phase: query with each S geometry, test exact intersection.
	// Candidate counts follow the *product* of the two densities, so each
	// real candidate pair stands for scale^2 full-size pairs — the filter's
	// per-candidate term and the refinement tests are charged accordingly
	// (Session.JoinCell's chargeScale).
	t1 := c.Now()
	s := querySession(c, g, trees, opt)
	// Query cells in ascending id order: iterating the map directly would
	// charge the per-query Compute costs in random order, and float
	// accumulation order leaks into the virtual clock bit-for-bit (the
	// maporder invariant; vectorio-vet flags the direct loop).
	sCells := make([]int, 0, len(cellsS))
	for cell := range cellsS {
		sCells = append(sCells, cell)
	}
	sort.Ints(sCells)
	for _, cell := range sCells {
		for _, sg := range cellsS[cell] {
			bd.Pairs += s.JoinCell(cell, sg, c.Compute, nil)
		}
	}
	bd.Refine = c.Now() - t1
}

// querySession wraps this rank's finished cell trees in the shared
// filter-and-refine evaluation core (see internal/serve): the batch
// workloads drive it with costs charged inline via c.Compute, the resident
// service drives the same Session concurrently with recorded charges.
func querySession(c *mpi.Comm, g grid.Partition, trees map[int]*rtree.Tree[geom.Geometry], opt JoinOptions) *serve.Session {
	return serve.NewSession(serve.SessionConfig{
		Partition:      g,
		Rank:           c.Rank(),
		Size:           c.Size(),
		Scale:          c.Config().Scale(),
		Trees:          trees,
		Predicate:      opt.Predicate,
		KeepDuplicates: opt.KeepDuplicates,
	})
}

// cellIndexer builds one R-tree per owned cell, a phase at a time — the
// single definition of the filter-phase index build, shared by the join
// workloads, the materialized BuildIndex/RangeQuery wrappers, and the
// streaming IndexStream (its phase method is an Exchanger.FinishStream
// sink, so trees rise while later window phases are still exchanging).
// Cells build in ascending id order within each phase and each cell's tree
// is STR bulk-loaded — partitioned cells are build-once/query-many, which
// is exactly BulkLoad's case, and the packed trees answer filter queries
// with fewer node visits than incrementally split ones. The virtual-time
// charge stays pinned to the paper's incremental model (GEOS
// insert-one-at-a-time, §5.2): one IndexInsert per geometry against the
// growing virtual tree size, replayed in insertion order, so Figure 20's
// index-phase times are unchanged by the bulk-loading.
type cellIndexer struct {
	c       *mpi.Comm
	scale   float64
	trees   map[int]*rtree.Tree[geom.Geometry]
	time    float64 // virtual seconds spent building (summed across phases)
	indexed int64

	ids   []int                       // recycled per-phase sorted cell ids
	items []rtree.Item[geom.Geometry] // recycled bulk-load staging
}

func newCellIndexer(c *mpi.Comm, scale float64) *cellIndexer {
	return &cellIndexer{c: c, scale: scale, trees: make(map[int]*rtree.Tree[geom.Geometry])}
}

// phase indexes one batch of completed cells. It is an Exchanger
// FinishStream sink and never fails.
func (ci *cellIndexer) phase(cells map[int][]geom.Geometry) error {
	t0 := ci.c.Now()
	ci.ids = ci.ids[:0]
	for cell := range cells {
		ci.ids = append(ci.ids, cell)
	}
	sort.Ints(ci.ids)
	for _, cell := range ci.ids {
		gs := cells[cell]
		items := ci.items[:0]
		for i, gg := range gs {
			ci.c.Compute(costmodel.IndexInsert(costmodel.VirtualCount(i, ci.scale)) * ci.scale)
			// Storing each geometry by its envelope also primes the lazy
			// envelope cache on this rank's goroutine, before the tree is
			// ever shared — the priming guarantee concurrent serving
			// relies on (serve.NewSession re-asserts it defensively).
			items = append(items, rtree.Item[geom.Geometry]{Env: gg.Envelope(), Value: gg})
		}
		// BulkLoad copies the items into its own sorted slice, so the
		// staging buffer recycles across cells.
		ci.trees[cell] = rtree.BulkLoad(items)
		ci.items = items
		ci.indexed += int64(len(gs))
	}
	ci.time += ci.c.Now() - t0
	return nil
}

// buildCellTrees is the one-shot materialized composition over the
// cellIndexer: every owned cell indexed in a single phase.
func buildCellTrees(c *mpi.Comm, owned map[int][]geom.Geometry, scale float64, indexed *int64) map[int]*rtree.Tree[geom.Geometry] {
	ci := newCellIndexer(c, scale)
	_ = ci.phase(owned)
	*indexed += ci.indexed
	return ci.trees
}

// JoinFiles is the end-to-end exemplar: read and partition two vector
// files with MPI-Vector-IO, then join them. Returns the aggregated
// (cross-rank) breakdown, identical on all ranks.
//
// Both flavors are thin compositions over the streaming core. With
// JoinOptions.Envelope nil (the default), the two-pass pipeline runs:
// materialize both inputs with ReadPartition, derive the global envelope
// with the MPI_UNION Allreduce, then exchange — historical behavior,
// preserved by construction. With a caller-supplied envelope, the one-pass
// pipeline runs: the grid is fixed up front and each file streams through
// core.ReadExchange, so cell assignment and frame encoding overlap I/O and
// parsing and no rank ever materializes its full local geometry slice. In
// the one-pass breakdown, Read covers the rank's I/O, boundary-repair
// communication and parsing work from the fused pass (the phases overlap,
// so they are attributed by work done, not by wall intervals).
func JoinFiles(c *mpi.Comm, fR, fS *mpiio.File, parser core.Parser, readOpt core.ReadOptions, opt JoinOptions) (Breakdown, error) {
	if opt.Envelope != nil || opt.Partition != nil {
		return joinFilesStreamed(c, fR, fS, parser, readOpt, opt)
	}
	t0 := c.Now()
	localR, _, err := core.ReadPartition(c, fR, parser, readOpt)
	if err != nil {
		return Breakdown{}, fmt.Errorf("spatial: read R: %w", err)
	}
	localS, _, err := core.ReadPartition(c, fS, parser, readOpt)
	if err != nil {
		return Breakdown{}, fmt.Errorf("spatial: read S: %w", err)
	}
	readTime := c.Now() - t0
	bd, err := Join(c, localR, localS, opt)
	if err != nil {
		return Breakdown{}, err
	}
	bd.Read = readTime
	bd.Total += readTime
	return bd.Aggregate(c)
}

// joinFilesStreamed is the one-pass JoinFiles pipeline: the partition —
// the caller-supplied one, or a uniform grid over the caller-supplied
// envelope — is fixed up front, and each input streams straight into its
// exchange.
func joinFilesStreamed(c *mpi.Comm, fR, fS *mpiio.File, parser core.Parser, readOpt core.ReadOptions, opt JoinOptions) (Breakdown, error) {
	var bd Breakdown
	start := c.Now()
	g := opt.Partition
	if g == nil {
		if opt.Envelope.IsEmpty() {
			return bd, fmt.Errorf("spatial: streamed join requires a non-empty envelope")
		}
		var err error
		if g, err = uniformPartition(*opt.Envelope, opt.cells()); err != nil {
			return bd, fmt.Errorf("spatial: grid: %w", err)
		}
	}
	pt := &core.Partitioner{Grid: g, WindowCells: opt.WindowCells, SkipBadFrames: opt.SkipBadFrames}
	cellsR, rstatsR, estatsR, err := core.ReadExchange(c, fR, parser, readOpt, pt)
	if err != nil {
		return bd, fmt.Errorf("spatial: stream R: %w", err)
	}
	cellsS, rstatsS, estatsS, err := core.ReadExchange(c, fS, parser, readOpt, pt)
	if err != nil {
		return bd, fmt.Errorf("spatial: stream S: %w", err)
	}
	bd.Read = rstatsR.IOTime + rstatsR.CommTime + rstatsR.ParseTime +
		rstatsS.IOTime + rstatsS.CommTime + rstatsS.ParseTime
	bd.Partition = estatsR.ProjectTime + estatsS.ProjectTime
	bd.Comm = estatsR.CommTime + estatsS.CommTime
	bd.Quarantined = int64(estatsR.FramesQuarantined + estatsS.FramesQuarantined)
	bd.GeomImbalance = math.Max(estatsR.GeomImbalance, estatsS.GeomImbalance)
	bd.ByteImbalance = math.Max(estatsR.ByteImbalance, estatsS.ByteImbalance)

	joinCells(c, g, cellsR, cellsS, opt, &bd)
	bd.Total = c.Now() - start
	return bd.Aggregate(c)
}

// IndexOptions configures parallel index construction (Figure 20).
type IndexOptions struct {
	// GridCells is the number of grid cells (the paper uses 2048).
	GridCells int
	// WindowCells bounds cells per exchange phase.
	WindowCells int
	// Envelope, when non-nil, is a caller-known global data envelope: the
	// grid is fixed from it up front instead of from the MPI_UNION
	// Allreduce, which is what lets BuildIndexFiles run the one-pass
	// streamed pipeline (and BuildIndex skip the reduction). Geometries
	// outside the supplied envelope still index correctly — projections
	// clamp to the border cells — but a misleadingly small envelope skews
	// the grid, so supply the real bounds or nil.
	Envelope *geom.Envelope
	// Partition, when non-nil, replaces the uniform grid entirely — cell
	// layout AND cell-to-rank placement come from it (a skew-aware
	// grid.Adaptive from core.SamplePartition, typically). It overrides
	// GridCells and Envelope and, like a supplied Envelope, lets the
	// *Files pipelines run one-pass. Must be identical on every rank.
	Partition grid.Partition
	// SkipBadFrames forwards core.Partitioner.SkipBadFrames: received
	// exchange frames that fail to decode are quarantined and counted in
	// Breakdown.Quarantined instead of failing the workload.
	SkipBadFrames bool
}

func (o IndexOptions) cells() int {
	if o.GridCells > 0 {
		return o.GridCells
	}
	return 2048
}

// BuildIndex partitions the local geometries globally and builds one R-tree
// per owned cell — the paper's in-memory spatial indexing workload that
// handles 717 M geometries in 90 s at 320 processes. Returns the cell
// indexes, the grid whose cell ids key them (nil when there is no data),
// and this rank's un-aggregated breakdown.
//
// BuildIndex is the materialized composition over the streamed index core:
// one ExchangeStream whose per-phase sink is the shared cellIndexer, so
// trees rise as each sliding-window phase completes and the fully
// materialized owned-cells map never exists. With IndexOptions.Envelope
// set, the MPI_UNION reduction is skipped and the grid fixed up front —
// the configuration whose clock trajectory the one-pass BuildIndexFiles
// reproduces exactly.
func BuildIndex(c *mpi.Comm, local []geom.Geometry, opt IndexOptions) (map[int]*rtree.Tree[geom.Geometry], grid.Partition, Breakdown, error) {
	var bd Breakdown
	start := c.Now()
	g := opt.Partition
	if g == nil {
		var global geom.Envelope
		if opt.Envelope != nil {
			if opt.Envelope.IsEmpty() {
				return nil, nil, bd, fmt.Errorf("spatial: BuildIndex requires a non-empty envelope when one is supplied")
			}
			global = *opt.Envelope
		} else {
			var err error
			global, err = core.GlobalEnvelope(c, core.LocalEnvelope(local))
			if err != nil {
				return nil, nil, bd, fmt.Errorf("spatial: global envelope: %w", err)
			}
			if global.IsEmpty() {
				bd.Total = c.Now() - start
				return map[int]*rtree.Tree[geom.Geometry]{}, nil, bd, nil
			}
		}
		var err error
		if g, err = uniformPartition(global, opt.cells()); err != nil {
			return nil, nil, bd, fmt.Errorf("spatial: grid: %w", err)
		}
	}
	pt := &core.Partitioner{Grid: g, WindowCells: opt.WindowCells, SkipBadFrames: opt.SkipBadFrames}
	ci := newCellIndexer(c, c.Config().Scale())
	stats, err := pt.ExchangeStream(c, local, ci.phase)
	if err != nil {
		return nil, nil, bd, fmt.Errorf("spatial: exchange: %w", err)
	}
	bd.Partition = stats.ProjectTime
	bd.Comm = stats.CommTime
	bd.Index = ci.time
	bd.Indexed = ci.indexed
	bd.Quarantined = int64(stats.FramesQuarantined)
	bd.GeomImbalance = stats.GeomImbalance
	bd.ByteImbalance = stats.ByteImbalance
	bd.Total = c.Now() - start
	return ci.trees, g, bd, nil
}

// RangeQuery runs a batch of rectangular range queries against a
// distributed dataset using the same filter-and-refine framework: the data
// is grid-partitioned, queries are evaluated in every cell they overlap,
// and duplicate hits are suppressed by the reference-point rule. The query
// batch is assumed replicated on all ranks (the paper's batch-query
// workload, §4.3). Returns this rank's breakdown; matches are per-rank
// until aggregated.
//
// Like BuildIndex, RangeQuery is a materialized composition over the
// streamed index core: the cell trees rise phase by phase inside the
// exchange. With JoinOptions.Envelope set, the grid is fixed from the
// caller's envelope instead of the MPI_UNION reduction over data and
// queries — queries and data outside it clamp to the border cells — which
// is the configuration the one-pass RangeQueryFiles reproduces exactly.
func RangeQuery(c *mpi.Comm, localData []geom.Geometry, queries []geom.Envelope, opt JoinOptions) (Breakdown, error) {
	var bd Breakdown
	start := c.Now()
	g := opt.Partition
	if g == nil {
		var global geom.Envelope
		if opt.Envelope != nil {
			if opt.Envelope.IsEmpty() {
				return bd, fmt.Errorf("spatial: RangeQuery requires a non-empty envelope when one is supplied")
			}
			global = *opt.Envelope
		} else {
			queryEnv := geom.EmptyEnvelope()
			for _, q := range queries {
				queryEnv = queryEnv.Union(q)
			}
			var err error
			global, err = core.GlobalEnvelope(c, core.LocalEnvelope(localData).Union(queryEnv))
			if err != nil {
				return bd, fmt.Errorf("spatial: global envelope: %w", err)
			}
			if global.IsEmpty() {
				bd.Total = c.Now() - start
				return bd, nil
			}
		}
		var err error
		if g, err = uniformPartition(global, opt.cells()); err != nil {
			return bd, fmt.Errorf("spatial: grid: %w", err)
		}
	}
	pt := &core.Partitioner{Grid: g, WindowCells: opt.WindowCells, SkipBadFrames: opt.SkipBadFrames}
	ci := newCellIndexer(c, c.Config().Scale())
	stats, err := pt.ExchangeStream(c, localData, ci.phase)
	if err != nil {
		return bd, fmt.Errorf("spatial: exchange: %w", err)
	}
	bd.Partition = stats.ProjectTime
	bd.Comm = stats.CommTime
	bd.Index = ci.time
	bd.Indexed = ci.indexed
	bd.Quarantined = int64(stats.FramesQuarantined)
	bd.GeomImbalance = stats.GeomImbalance
	bd.ByteImbalance = stats.ByteImbalance

	queryCells(c, g, ci.trees, queries, opt, &bd)
	bd.Total = c.Now() - start
	return bd, nil
}

// queryCells evaluates a replicated rectangular query batch against this
// rank's cell trees with filter-and-refine and reference-point duplicate
// suppression, accumulating matches and refine time into bd. It is the
// shared back half of RangeQuery (materialized) and RangeQueryFiles
// (one-pass streamed) — a thin batch wrapper over serve.Session.Range, the
// same evaluation the resident query service runs concurrently: queries in
// batch order with costs charged inline, so the service's id-ordered
// charge replay reproduces this trajectory bitwise.
func queryCells(c *mpi.Comm, g grid.Partition, trees map[int]*rtree.Tree[geom.Geometry], queries []geom.Envelope, opt JoinOptions, bd *Breakdown) {
	t1 := c.Now()
	s := querySession(c, g, trees, opt)
	for _, q := range queries {
		bd.Pairs += s.Range(q, c.Compute, nil)
	}
	bd.Refine += c.Now() - t1
}
