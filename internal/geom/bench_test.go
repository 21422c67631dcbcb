package geom

import (
	"math"
	"math/rand"
	"testing"
)

// benchLine is a 64-vertex line string, the scale at which per-call
// envelope rescans start to dominate the filter phase.
func benchLine() *LineString {
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Point{X: float64(i % 13), Y: float64(i % 7)}
	}
	return &LineString{Pts: pts}
}

// BenchmarkEnvelopeCached measures repeated Envelope() calls on one
// geometry — the grid-partitioning / join-filter access pattern. With the
// memoized MBR this is O(1) and allocation-free after the first call.
func BenchmarkEnvelopeCached(b *testing.B) {
	l := benchLine()
	l.Envelope() // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.Envelope().IsEmpty() {
			b.Fatal("unexpected empty envelope")
		}
	}
}

// BenchmarkEnvelopeScan is the uncached baseline: a full vertex rescan per
// call, what Envelope() cost before the cache.
func BenchmarkEnvelopeScan(b *testing.B) {
	l := benchLine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if EnvelopeOf(l.Pts).IsEmpty() {
			b.Fatal("unexpected empty envelope")
		}
	}
}

// BenchmarkEnvelopeFirstCall includes the one-time cache fill.
func BenchmarkEnvelopeFirstCall(b *testing.B) {
	l := benchLine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.cache = envCache{}
		if l.Envelope().IsEmpty() {
			b.Fatal("unexpected empty envelope")
		}
	}
}

// starRing is a closed star-shaped ring of verts vertices around c, the
// lake and cemetery shape the data generator writes: radii drawn from
// [0.5, 1.5)*base at evenly spaced angles.
func starRing(r *rand.Rand, c Point, verts int, base float64) []Point {
	pts := make([]Point, 0, verts+1)
	for i := 0; i < verts; i++ {
		angle := 2 * math.Pi * float64(i) / float64(verts)
		radius := base * (0.5 + r.Float64())
		pts = append(pts, Point{c.X + radius*math.Cos(angle), c.Y + radius*math.Sin(angle)})
	}
	return append(pts, pts[0])
}

// BenchmarkIntersects times the refine predicate on join-shaped pairs: a
// lake polygon against a 13-vertex cemetery whose envelope overlaps the
// lake's, at the generator's footprint for each vertex count (a 50-vertex
// lake spans about 0.4 degrees, a cemetery about 0.1, the largest lakes 4).
// The miss sits in a corner of the lake's envelope, outside the ring, so
// it pays for the full boundary test and both containment checks.
func BenchmarkIntersects(b *testing.B) {
	lake := func(verts int, base float64) *Polygon {
		return &Polygon{Shell: starRing(rand.New(rand.NewSource(int64(verts))), Point{}, verts, base)}
	}
	cemetery := func(c Point) *Polygon {
		return &Polygon{Shell: starRing(rand.New(rand.NewSource(13)), c, 13, 0.05)}
	}
	lake50, lake976 := lake(50, 0.2), lake(976, 2.0)
	cases := []struct {
		name      string
		lake, cem *Polygon
		want      bool
	}{
		{"lake50-cem13-hit", lake50, cemetery(Point{-0.1, 0.17}), true},
		{"lake50-cem13-miss", lake50, cemetery(Point{0.27, 0.27}), false},
		{"lake976-cem13-miss", lake976, cemetery(Point{2.7, 2.7}), false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			if !c.lake.Envelope().Intersects(c.cem.Envelope()) {
				b.Fatal("envelopes disjoint: the pair would never reach refine")
			}
			if got := Intersects(c.lake, c.cem); got != c.want {
				b.Fatalf("Intersects = %v, want %v", got, c.want)
			}
			b.ReportAllocs()
			for b.Loop() {
				Intersects(c.lake, c.cem)
			}
		})
	}
}
