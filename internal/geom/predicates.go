package geom

// This file implements the "intersects" spatial predicate for every pair of
// supported geometry types. Intersects is the predicate θ of the paper's
// spatial join definition (§2): it returns true iff the two shapes share any
// portion of space. The refine phase of filter-and-refine calls these exact
// routines after the MBR filter has discarded the cheap negatives.

// Intersects reports whether geometries a and b share at least one point.
// An envelope pre-test short-circuits disjoint pairs, mirroring the filter
// step GEOS applies internally.
func Intersects(a, b Geometry) bool {
	if a == nil || b == nil {
		return false
	}
	if !a.Envelope().Intersects(b.Envelope()) {
		return false
	}
	// Distribute multi-geometries over their components first, so the simple
	// pairwise cases below never see a Multi* operand.
	if hit, ok := distribute(a, b); ok {
		return hit
	}
	if hit, ok := distribute(b, a); ok {
		return hit
	}
	// Normalize so the switch below only handles ordered simple type pairs.
	if a.GeomType() > b.GeomType() {
		a, b = b, a
	}
	switch g := a.(type) {
	case Point:
		return pointIntersects(g, b)
	case *LineString:
		return lineIntersects(g, b)
	case *Polygon:
		other, ok := b.(*Polygon)
		return ok && polygonsIntersect(g, other)
	default:
		return false
	}
}

// distribute expands a Multi* left operand into per-component Intersects
// calls. The second result reports whether a was a multi-geometry.
func distribute(a, b Geometry) (hit, ok bool) {
	switch g := a.(type) {
	case *MultiPoint:
		for _, p := range g.Pts {
			if Intersects(p, b) {
				return true, true
			}
		}
		return false, true
	case *MultiLineString:
		for i := range g.Lines {
			if Intersects(&g.Lines[i], b) {
				return true, true
			}
		}
		return false, true
	case *MultiPolygon:
		for i := range g.Polys {
			if Intersects(&g.Polys[i], b) {
				return true, true
			}
		}
		return false, true
	default:
		return false, false
	}
}

// pointIntersects handles point vs. simple type with GeomType >= TypePoint.
func pointIntersects(p Point, b Geometry) bool {
	switch g := b.(type) {
	case Point:
		return p == g
	case *LineString:
		return pointOnLine(p, g.Pts)
	case *Polygon:
		return PointInPolygon(p, g)
	default:
		return false
	}
}

// lineIntersects handles line vs. {line, polygon}.
func lineIntersects(l *LineString, b Geometry) bool {
	switch g := b.(type) {
	case *LineString:
		return polylinesCross(l.Pts, l.Envelope(), g.Pts, g.Envelope())
	case *Polygon:
		return linePolygonIntersects(l, g)
	default:
		return false
	}
}

// PointInPolygon reports whether p lies inside the polygon or on its
// boundary, using the even-odd ray crossing rule with an explicit boundary
// test (boundary points count as intersecting under OGC semantics).
func PointInPolygon(p Point, poly *Polygon) bool {
	if !poly.Envelope().ContainsPoint(p.X, p.Y) {
		return false
	}
	if pointOnRing(p, poly.Shell) {
		return true
	}
	if !pointInRing(p, poly.Shell) {
		return false
	}
	for _, h := range poly.Holes {
		if pointOnRing(p, h) {
			return true // hole boundary belongs to the polygon
		}
		if pointInRing(p, h) {
			return false // strictly inside a hole
		}
	}
	return true
}

// pointInRing is the classic even-odd crossing count (boundary excluded).
func pointInRing(p Point, ring []Point) bool {
	inside := false
	n := len(ring)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		yi, yj := ring[i].Y, ring[j].Y
		if (yi > p.Y) != (yj > p.Y) {
			xCross := ring[j].X + (p.Y-yj)/(yi-yj)*(ring[i].X-ring[j].X)
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

func pointOnRing(p Point, ring []Point) bool { return pointOnLine(p, ring) }

// pointOnLine reports whether p lies on any segment of the polyline.
func pointOnLine(p Point, pts []Point) bool {
	for i := 1; i < len(pts); i++ {
		if onSegment(pts[i-1], pts[i], p) {
			return true
		}
	}
	return false
}

// polylinesCross reports whether any segment of a shares a point with any
// segment of b. It tests exactly the segment pairs whose closed envelopes
// meet, but skips most of them without looking: two segment envelopes can
// only meet inside the overlap window w of the two runs' envelopes (each
// segment envelope lies inside its own run's envelope), so a segment whose
// envelope misses w meets no segment of the other run. The kernel gathers
// b's segments that meet w into a stack buffer, then runs the inner loop
// over them only for the segments of a that meet w: O(n+m+k*m') for k and
// m' window survivors instead of O(n*m). The window and every envelope
// test are min/max and comparisons only, with no rounding, so the filter
// is exact and the pairs handed to SegmentsIntersect are exactly those an
// all-pairs loop with per-pair envelope pre-tests would test. ea and eb
// must contain a and b; callers pass the geometries' cached envelopes so a
// long ring is not rescanned on every call.
func polylinesCross(a []Point, ea Envelope, b []Point, eb Envelope) bool {
	w := Envelope{
		MinX: max(ea.MinX, eb.MinX), MinY: max(ea.MinY, eb.MinY),
		MaxX: min(ea.MaxX, eb.MaxX), MaxY: min(ea.MaxY, eb.MaxY),
	}
	if w.MinX > w.MaxX || w.MinY > w.MaxY {
		return false
	}
	// b's survivors go through the buffer in chunks, so a run with more
	// survivors than fit rescans a once per chunk instead of allocating.
	var buf [128]int32
	for j := 1; j < len(b); {
		keep := buf[:0]
		for ; j < len(b) && len(keep) < len(buf); j++ {
			if segmentMeets(b[j-1], b[j], w) {
				keep = append(keep, int32(j))
			}
		}
		if len(keep) == 0 {
			break // j reached the end of b
		}
		for i := 1; i < len(a); i++ {
			p, q := a[i-1], a[i]
			s := Envelope{min(p.X, q.X), min(p.Y, q.Y), max(p.X, q.X), max(p.Y, q.Y)}
			if !envelopesMeet(s, w) {
				continue
			}
			for _, k := range keep {
				if segmentMeets(b[k-1], b[k], s) && SegmentsIntersect(p, q, b[k-1], b[k]) {
					return true
				}
			}
		}
	}
	return false
}

// segmentMeets reports whether the closed envelope of segment pq meets the
// closed envelope e.
func segmentMeets(p, q Point, e Envelope) bool {
	return envelopesMeet(Envelope{min(p.X, q.X), min(p.Y, q.Y), max(p.X, q.X), max(p.Y, q.Y)}, e)
}

// envelopesMeet is Envelope.Intersects for operands known to be non-empty.
func envelopesMeet(s, e Envelope) bool {
	return s.MinX <= e.MaxX && e.MinX <= s.MaxX && s.MinY <= e.MaxY && e.MinY <= s.MaxY
}

// linePolygonIntersects: a line meets a polygon if an endpoint is inside it
// or any segment meets the shell or a hole ring.
func linePolygonIntersects(l *LineString, poly *Polygon) bool {
	if len(l.Pts) == 0 {
		return false
	}
	if PointInPolygon(l.Pts[0], poly) {
		return true
	}
	for i := -1; i < len(poly.Holes); i++ {
		r, e := ring(poly, i)
		if polylinesCross(l.Pts, l.Envelope(), r, e) {
			return true
		}
	}
	return false
}

// polygonsIntersect: some ring of a meets some ring of b, or one polygon
// contains the other. With no ring pair meeting, every ring of one polygon
// lies wholly inside or wholly outside each region the other's rings
// bound, so one vertex of each shell decides containment (PointInPolygon
// applies the holes).
func polygonsIntersect(a, b *Polygon) bool {
	for i := -1; i < len(a.Holes); i++ {
		ra, ea := ring(a, i)
		for j := -1; j < len(b.Holes); j++ {
			if rb, eb := ring(b, j); polylinesCross(ra, ea, rb, eb) {
				return true
			}
		}
	}
	if len(b.Shell) > 0 && PointInPolygon(b.Shell[0], a) {
		return true
	}
	if len(a.Shell) > 0 && PointInPolygon(a.Shell[0], b) {
		return true
	}
	return false
}

// ring returns the shell (i = -1) or hole i with its envelope; the
// shell's is the polygon's cached one.
func ring(p *Polygon, i int) ([]Point, Envelope) {
	if i < 0 {
		return p.Shell, p.Envelope()
	}
	return p.Holes[i], EnvelopeOf(p.Holes[i])
}

// orientation returns >0 if (a,b,c) turn counter-clockwise, <0 clockwise,
// 0 if collinear.
func orientation(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether collinearity-tested point p lies on segment ab.
func onSegment(a, b, p Point) bool {
	if orientation(a, b, p) != 0 {
		return false
	}
	return min(a.X, b.X) <= p.X && p.X <= max(a.X, b.X) &&
		min(a.Y, b.Y) <= p.Y && p.Y <= max(a.Y, b.Y)
}

// SegmentsIntersect reports whether closed segments p1p2 and p3p4 share a
// point, including collinear overlap and endpoint touching.
func SegmentsIntersect(p1, p2, p3, p4 Point) bool {
	d1 := orientation(p3, p4, p1)
	d2 := orientation(p3, p4, p2)
	d3 := orientation(p1, p2, p3)
	d4 := orientation(p1, p2, p4)

	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && onSegment(p3, p4, p1)) ||
		(d2 == 0 && onSegment(p3, p4, p2)) ||
		(d3 == 0 && onSegment(p1, p2, p3)) ||
		(d4 == 0 && onSegment(p1, p2, p4))
}
