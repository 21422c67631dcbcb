package sfc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

var world = geom.Envelope{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}

func envAt(x, y float64) geom.Envelope {
	return geom.Envelope{MinX: x, MinY: y, MaxX: x, MaxY: y}
}

func TestHilbertDistinctCorners(t *testing.T) {
	// The four corner cells must map to distinct indices and the origin
	// corner to 0.
	d00 := hilbertD(0, 0)
	if d00 != 0 {
		t.Errorf("hilbertD(0,0) = %d, want 0", d00)
	}
	seen := map[uint64]bool{}
	for _, p := range [][2]uint32{{0, 0}, {steps - 1, 0}, {0, steps - 1}, {steps - 1, steps - 1}} {
		d := hilbertD(p[0], p[1])
		if seen[d] {
			t.Errorf("corner %v collides at index %d", p, d)
		}
		seen[d] = true
	}
}

// TestHilbertAdjacencyProperty: consecutive Hilbert indexes must be
// adjacent cells (Manhattan distance 1) — the defining property the curve
// has and Z-order lacks.
func TestHilbertAdjacencyProperty(t *testing.T) {
	// Invert by brute force on a tiny curve: recompute d for all cells of
	// a 16x16 grid (order 4 embedded in our fixed order via the top bits).
	const n = 16
	pos := make(map[uint64][2]uint32, n*n)
	shift := uint32(steps / n)
	for x := uint32(0); x < n; x++ {
		for y := uint32(0); y < n; y++ {
			d := hilbertD(x*shift, y*shift)
			pos[d] = [2]uint32{x, y}
		}
	}
	// Sort indexes.
	var order []uint64
	for d := range pos {
		order = append(order, d)
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j] < order[i] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for i := 1; i < len(order); i++ {
		a, b := pos[order[i-1]], pos[order[i]]
		dx := math.Abs(float64(a[0]) - float64(b[0]))
		dy := math.Abs(float64(a[1]) - float64(b[1]))
		if dx+dy != 1 {
			t.Fatalf("cells %v and %v are consecutive on the curve but not adjacent", a, b)
		}
	}
}

// TestSortStableAndOrdered: the sort produces a monotone key sequence and
// preserves the multiset.
func TestSortStableAndOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	gs := make([]geom.Geometry, 500)
	for i := range gs {
		gs[i] = geom.Point{X: r.Float64()*360 - 180, Y: r.Float64()*180 - 90}
	}
	SortByHilbert(gs, world)
	if len(gs) != 500 {
		t.Fatalf("lost elements")
	}
	for i := 1; i < len(gs); i++ {
		if Hilbert(gs[i-1].Envelope(), world) > Hilbert(gs[i].Envelope(), world) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

// TestQuantizeBounds: quantize clamps out-of-range coordinates.
func TestQuantizeBounds(t *testing.T) {
	if q := quantize(-999, -180, 360); q != 0 {
		t.Errorf("below range quantizes to %d", q)
	}
	if q := quantize(999, -180, 360); q != steps-1 {
		t.Errorf("above range quantizes to %d", q)
	}
	if q := quantize(5, 0, 0); q != 0 {
		t.Errorf("degenerate span quantizes to %d", q)
	}
}

// Property: Hilbert indexes are deterministic functions of the quantized
// cell — equal inputs, equal outputs.
func TestCurveDeterminismProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}
	prop := func(xs, ys uint16) bool {
		x := float64(xs)/65535*360 - 180
		y := float64(ys)/65535*180 - 90
		e := envAt(x, y)
		return Hilbert(e, world) == Hilbert(e, world)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
