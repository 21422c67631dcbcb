// Package sfc implements the space-filling curves the paper's §4.1 relies
// on for spatial locality: "points and line segments are often sorted in 2D
// using Z-order and Hilbert curve". Sorting a dataset by curve index makes
// contiguous file partitions spatially coherent (Figure 5a) — which is
// exactly why round-robin declustered reads (Figure 5b) balance load better
// on skewed data.
package sfc

import "repro/internal/geom"

// Order is the resolution of the curve: coordinates are quantized to
// 2^Order cells per axis. 16 gives ~65K cells per axis, plenty for
// world-scale data.
const Order = 16

// steps is the number of discrete positions per axis.
const steps = 1 << Order

// quantize maps a coordinate inside env to [0, steps).
func quantize(v, lo, span float64) uint32 {
	if span <= 0 {
		return 0
	}
	t := (v - lo) / span
	if t < 0 {
		t = 0
	}
	if t >= 1 {
		return steps - 1
	}
	return uint32(t * steps)
}

// cell quantizes the center of e within env.
func cell(e, env geom.Envelope) (x, y uint32) {
	c := e.Center()
	return quantize(c.X, env.MinX, env.Width()), quantize(c.Y, env.MinY, env.Height())
}

// Hilbert returns the Hilbert-curve index of e's center within env. The
// Hilbert curve preserves locality better than Z-order (no long diagonal
// jumps), which is why it is the curve used here.
func Hilbert(e, env geom.Envelope) uint64 {
	x, y := cell(e, env)
	return hilbertD(x, y)
}

// hilbertD converts (x, y) to the distance along the order-Order Hilbert
// curve using the classic quadrant-rotation formulation.
func hilbertD(x, y uint32) uint64 {
	var d uint64
	for s := uint32(steps / 2); s > 0; s /= 2 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// SortByHilbert sorts geometries in place by the Hilbert index of their
// MBR centers within env (each key computed once per element).
func SortByHilbert(gs []geom.Geometry, env geom.Envelope) {
	type keyed struct {
		k uint64
		g geom.Geometry
	}
	ks := make([]keyed, len(gs))
	for i, g := range gs {
		ks[i] = keyed{k: Hilbert(g.Envelope(), env), g: g}
	}
	// Standard library sort via sort.Slice would need the sort import;
	// a bottom-up merge keeps the package dependency-free and stable.
	tmp := make([]keyed, len(ks))
	for width := 1; width < len(ks); width *= 2 {
		for lo := 0; lo < len(ks); lo += 2 * width {
			mid := min(lo+width, len(ks))
			hi := min(lo+2*width, len(ks))
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if ks[i].k <= ks[j].k {
					tmp[k] = ks[i]
					i++
				} else {
					tmp[k] = ks[j]
					j++
				}
				k++
			}
			copy(tmp[k:], ks[i:mid])
			copy(tmp[k+mid-i:], ks[j:hi])
		}
		ks, tmp = tmp, ks
	}
	for i := range ks {
		gs[i] = ks[i].g
	}
}
