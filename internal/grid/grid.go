// Package grid implements the uniform cellular decomposition at the heart
// of the paper's spatial partitioning (§4, Figures 1-2): geometries read
// from a file partition are projected onto a grid of cells; a geometry
// overlapping several cells is replicated into each of them (duplicates are
// culled later, in the refine phase); and cells are mapped to ranks —
// round-robin by default — to decluster skewed data for load balance
// (Figure 5, [Shekhar et al.]).
package grid

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Grid is a Cols x Rows uniform decomposition of a world envelope. Cell ids
// are row-major: id = row*Cols + col, with (0,0) at (MinX, MinY).
type Grid struct {
	env        geom.Envelope
	cols, rows int
	cellW      float64
	cellH      float64
}

// New builds a grid over env. The envelope must be non-empty and the
// dimensions positive.
//
//vet:uniform — pure argument validation: ranks passing the same envelope and dimensions fail or succeed identically
func New(env geom.Envelope, cols, rows int) (*Grid, error) {
	if env.IsEmpty() {
		return nil, fmt.Errorf("grid: empty world envelope")
	}
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("grid: invalid dimensions %dx%d", cols, rows)
	}
	w := env.Width()
	h := env.Height()
	if w == 0 || h == 0 {
		// Degenerate world (single point or line): inflate so every
		// geometry still lands in a valid cell.
		env = env.ExpandBy(0.5)
		w, h = env.Width(), env.Height()
	}
	return &Grid{
		env:  env,
		cols: cols, rows: rows,
		cellW: w / float64(cols),
		cellH: h / float64(rows),
	}, nil
}

// Env returns the world envelope.
func (g *Grid) Env() geom.Envelope { return g.env }

// Rows returns the number of rows.
func (g *Grid) Rows() int { return g.rows }

// NumCells returns Cols*Rows.
func (g *Grid) NumCells() int { return g.cols * g.rows }

// CellEnv returns the envelope of cell id. Border cells extend exactly to
// the grid envelope's edges, so the cells tile the envelope with no
// floating-point slack — a geometry on the outer boundary always
// intersects at least one cell rectangle.
func (g *Grid) CellEnv(id int) geom.Envelope {
	col := id % g.cols
	row := id / g.cols
	e := geom.Envelope{
		MinX: g.env.MinX + float64(col)*g.cellW,
		MinY: g.env.MinY + float64(row)*g.cellH,
		MaxX: g.env.MinX + float64(col+1)*g.cellW,
		MaxY: g.env.MinY + float64(row+1)*g.cellH,
	}
	if col == g.cols-1 {
		e.MaxX = g.env.MaxX
	}
	if row == g.rows-1 {
		e.MaxY = g.env.MaxY
	}
	return e
}

// clampCol maps an x coordinate to a column, clamping outside points to the
// border cells. The division is only a first guess: dividing by cellW and
// the multiplication CellEnv uses for cell edges can disagree by one ulp at
// a cell boundary, and the two views of the grid must coincide — CellAt and
// CellsFor feed the reference-point rule and the query iteration while the
// CellIndex R-tree holds CellEnv rectangles, so a divergence leaves a
// boundary geometry placed only in the cell left of an edge that the query
// path starts iterating at, silently dropping the hit on every rank. The
// guess is repaired against the same boundary expression CellEnv evaluates,
// making the half-open column intervals exact.
func (g *Grid) clampCol(x float64) int {
	c := int((x - g.env.MinX) / g.cellW)
	if c < 0 {
		return 0
	}
	if c >= g.cols {
		c = g.cols - 1
	}
	for c > 0 && x < g.env.MinX+float64(c)*g.cellW {
		c--
	}
	for c < g.cols-1 && x >= g.env.MinX+float64(c+1)*g.cellW {
		c++
	}
	return c
}

// clampRow is clampCol for the y axis, with the same boundary repair.
func (g *Grid) clampRow(y float64) int {
	r := int((y - g.env.MinY) / g.cellH)
	if r < 0 {
		return 0
	}
	if r >= g.rows {
		r = g.rows - 1
	}
	for r > 0 && y < g.env.MinY+float64(r)*g.cellH {
		r--
	}
	for r < g.rows-1 && y >= g.env.MinY+float64(r+1)*g.cellH {
		r++
	}
	return r
}

// CellAt returns the id of the cell containing point (x, y), clamped to the
// grid borders.
func (g *Grid) CellAt(x, y float64) int {
	return g.clampRow(y)*g.cols + g.clampCol(x)
}

// CellsFor returns the ids of every cell whose area overlaps envelope e —
// the replication set of a geometry with MBR e. Empty envelopes map to no
// cells.
func (g *Grid) CellsFor(e geom.Envelope) []int {
	if e.IsEmpty() {
		return nil
	}
	c0, c1 := g.clampCol(e.MinX), g.clampCol(e.MaxX)
	r0, r1 := g.clampRow(e.MinY), g.clampRow(e.MaxY)
	out := make([]int, 0, (c1-c0+1)*(r1-r0+1))
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			out = append(out, r*g.cols+c)
		}
	}
	return out
}

// RefCell returns the cell containing the reference point (the lower-left
// corner) of envelope e. Reporting a replicated pair only from the cell
// containing the reference point of the pair's MBR intersection is the
// standard duplicate-avoidance rule the paper applies in the refinement
// phase (§4).
func (g *Grid) RefCell(e geom.Envelope) int {
	return g.CellAt(e.MinX, e.MinY)
}

// CellIndex is an R-tree over the grid's cell boundaries. The paper builds
// exactly this index — "an R-tree is first built by inserting the
// individual cell boundaries" (§4) — and queries it with each geometry's
// MBR; for a uniform grid the arithmetic in CellsFor gives identical
// results, and tests assert the equivalence.
type CellIndex struct {
	tree *rtree.Tree[int]
}

// NewCellIndex bulk-loads the R-tree of all cell boundaries of any
// partition — uniform or adaptive, the index only needs the cell count and
// each cell's rectangle.
func NewCellIndex(p Partition) *CellIndex {
	items := make([]rtree.Item[int], p.NumCells())
	for id := 0; id < p.NumCells(); id++ {
		items[id] = rtree.Item[int]{Env: p.CellEnv(id), Value: id}
	}
	return &CellIndex{tree: rtree.BulkLoad(items)}
}

// CellsFor returns the ids of cells whose boundary intersects e, via the
// R-tree query path.
func (ci *CellIndex) CellsFor(e geom.Envelope) []int {
	if e.IsEmpty() {
		return nil
	}
	return ci.tree.Query(e)
}

// RoundRobin is the default cell-to-rank mapping (§4.2.3): cell k belongs
// to rank k mod size.
func RoundRobin(cell, size int) int { return cell % size }
