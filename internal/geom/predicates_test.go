package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// unitSquare returns a closed 1x1 square shell at (x, y).
func unitSquare(x, y float64) *Polygon {
	return &Polygon{Shell: []Point{
		{x, y}, {x + 1, y}, {x + 1, y + 1}, {x, y + 1}, {x, y},
	}}
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		name       string
		a, b, c, d Point
		want       bool
	}{
		{"crossing", Point{0, 0}, Point{2, 2}, Point{0, 2}, Point{2, 0}, true},
		{"parallel", Point{0, 0}, Point{2, 0}, Point{0, 1}, Point{2, 1}, false},
		{"collinear-overlap", Point{0, 0}, Point{2, 0}, Point{1, 0}, Point{3, 0}, true},
		{"collinear-disjoint", Point{0, 0}, Point{1, 0}, Point{2, 0}, Point{3, 0}, false},
		{"endpoint-touch", Point{0, 0}, Point{1, 1}, Point{1, 1}, Point{2, 0}, true},
		{"t-junction", Point{0, 0}, Point{2, 0}, Point{1, -1}, Point{1, 0}, true},
		{"near-miss", Point{0, 0}, Point{2, 0}, Point{1, 0.0001}, Point{1, 1}, false},
		{"disjoint", Point{0, 0}, Point{1, 0}, Point{5, 5}, Point{6, 6}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := SegmentsIntersect(c.a, c.b, c.c, c.d); got != c.want {
				t.Errorf("SegmentsIntersect = %v, want %v", got, c.want)
			}
			// Symmetric in segment order and in endpoint order.
			if got := SegmentsIntersect(c.c, c.d, c.a, c.b); got != c.want {
				t.Errorf("segment-order symmetry broken")
			}
			if got := SegmentsIntersect(c.b, c.a, c.d, c.c); got != c.want {
				t.Errorf("endpoint-order symmetry broken")
			}
		})
	}
}

func TestPointInPolygon(t *testing.T) {
	square := unitSquare(0, 0)
	donut := &Polygon{
		Shell: []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
		Holes: [][]Point{{{4, 4}, {6, 4}, {6, 6}, {4, 6}, {4, 4}}},
	}
	cases := []struct {
		name string
		p    Point
		poly *Polygon
		want bool
	}{
		{"center", Point{0.5, 0.5}, square, true},
		{"outside", Point{2, 2}, square, false},
		{"on-edge", Point{1, 0.5}, square, true},
		{"on-vertex", Point{0, 0}, square, true},
		{"in-donut-body", Point{2, 2}, donut, true},
		{"in-hole", Point{5, 5}, donut, false},
		{"on-hole-boundary", Point{4, 5}, donut, true},
		{"far-outside", Point{100, 100}, donut, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := PointInPolygon(c.p, c.poly); got != c.want {
				t.Errorf("PointInPolygon(%+v) = %v, want %v", c.p, got, c.want)
			}
		})
	}
}

func TestIntersectsPairs(t *testing.T) {
	sq := unitSquare(0, 0)
	far := unitSquare(5, 5)
	overlapping := unitSquare(0.5, 0.5)
	containing := &Polygon{Shell: []Point{{-1, -1}, {2, -1}, {2, 2}, {-1, 2}, {-1, -1}}}
	line := &LineString{Pts: []Point{{-1, 0.5}, {2, 0.5}}}
	outsideLine := &LineString{Pts: []Point{{3, 3}, {4, 4}}}
	insideLine := &LineString{Pts: []Point{{0.2, 0.2}, {0.8, 0.8}}}
	donut := &Polygon{
		Shell: []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {0, 0}},
		Holes: [][]Point{{{2, 2}, {8, 2}, {8, 8}, {2, 8}, {2, 2}}},
	}
	rect := func(x0, y0, x1, y1 float64) *Polygon { return Envelope{x0, y0, x1, y1}.ToPolygon() }

	cases := []struct {
		name string
		a, b Geometry
		want bool
	}{
		{"pt-pt-equal", Point{1, 1}, Point{1, 1}, true},
		{"pt-pt-diff", Point{1, 1}, Point{1, 2}, false},
		{"pt-in-poly", Point{0.5, 0.5}, sq, true},
		{"pt-out-poly", Point{3, 3}, sq, false},
		{"pt-on-line", Point{0, 0.5}, line, true},
		{"pt-off-line", Point{0, 0.6}, line, false},
		{"line-crosses-poly", line, sq, true},
		{"line-inside-poly", insideLine, sq, true},
		{"line-outside-poly", outsideLine, sq, false},
		{"poly-poly-overlap", sq, overlapping, true},
		{"poly-poly-disjoint", sq, far, false},
		{"poly-contains-poly", containing, sq, true},
		{"poly-inside-poly", sq, containing, true},
		{"line-line-cross", line, &LineString{Pts: []Point{{0.5, 0}, {0.5, 1}}}, true},
		{"line-line-miss", line, outsideLine, false},
		{"multipoint-hit", &MultiPoint{Pts: []Point{{9, 9}, {0.5, 0.5}}}, sq, true},
		{"multipoint-miss", &MultiPoint{Pts: []Point{{9, 9}, {8, 8}}}, sq, false},
		{"multipolygon-hit", &MultiPolygon{Polys: []Polygon{*far, *overlapping}}, sq, true},
		{"multiline-hit", &MultiLineString{Lines: []LineString{*outsideLine, *insideLine}}, sq, true},
		// Holes take part in the boundary test: the first square starts
		// inside the hole, so no vertex test sees it, and reaches into the
		// solid part across the hole's edge, which no shell touches.
		{"poly-hole-edge-crossing", donut, rect(4, 4, 9, 5), true},
		{"poly-in-hole", donut, rect(3, 3, 7, 7), false},
		{"poly-hole-crosses-hole", donut, &Polygon{
			Shell: []Point{{1, 1}, {11, 1}, {11, 11}, {1, 11}, {1, 1}},
			Holes: [][]Point{{{5, 5}, {9, 5}, {9, 9}, {5, 9}, {5, 5}}},
		}, true},
		{"line-in-hole", &LineString{Pts: []Point{{3, 3}, {7, 7}}}, donut, false},
		{"line-crosses-hole-edge", &LineString{Pts: []Point{{3, 3}, {8.5, 3}}}, donut, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Intersects(c.a, c.b); got != c.want {
				t.Errorf("Intersects = %v, want %v", got, c.want)
			}
			if got := Intersects(c.b, c.a); got != c.want {
				t.Errorf("Intersects (swapped) = %v, want %v", got, c.want)
			}
		})
	}
}

func TestIntersectsNil(t *testing.T) {
	if Intersects(nil, Point{0, 0}) || Intersects(Point{0, 0}, nil) || Intersects(nil, nil) {
		t.Error("nil geometry must not intersect anything")
	}
}

func TestPolygonArea(t *testing.T) {
	sq := unitSquare(3, 3)
	if got := sq.Area(); math.Abs(got-1) > 1e-12 {
		t.Errorf("unit square area = %v", got)
	}
	donut := &Polygon{
		Shell: []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}},
		Holes: [][]Point{{{1, 1}, {2, 1}, {2, 2}, {1, 2}, {1, 1}}},
	}
	if got := donut.Area(); math.Abs(got-15) > 1e-12 {
		t.Errorf("donut area = %v, want 15", got)
	}
	// Orientation must not matter.
	rev := &Polygon{Shell: []Point{{0, 0}, {0, 4}, {4, 4}, {4, 0}, {0, 0}}}
	if got := rev.Area(); math.Abs(got-16) > 1e-12 {
		t.Errorf("clockwise square area = %v, want 16", got)
	}
}

func TestLineLength(t *testing.T) {
	l := &LineString{Pts: []Point{{0, 0}, {3, 4}, {3, 5}}}
	if got := l.Length(); math.Abs(got-6) > 1e-12 {
		t.Errorf("length = %v, want 6", got)
	}
}

func TestGeometryEnvelopes(t *testing.T) {
	mp := &MultiPolygon{Polys: []Polygon{*unitSquare(0, 0), *unitSquare(4, 4)}}
	if mp.Envelope() != (Envelope{0, 0, 5, 5}) {
		t.Errorf("multipolygon envelope = %+v", mp.Envelope())
	}
	if mp.NumPoints() != 10 {
		t.Errorf("multipolygon NumPoints = %d, want 10", mp.NumPoints())
	}
	ml := &MultiLineString{Lines: []LineString{
		{Pts: []Point{{0, 0}, {1, 1}}},
		{Pts: []Point{{-2, 3}, {0, 0}}},
	}}
	if ml.Envelope() != (Envelope{-2, 0, 1, 3}) {
		t.Errorf("multiline envelope = %+v", ml.Envelope())
	}
	if ml.NumPoints() != 4 {
		t.Errorf("multiline NumPoints = %d", ml.NumPoints())
	}
	mpt := &MultiPoint{Pts: []Point{{1, 2}, {3, -1}}}
	if mpt.Envelope() != (Envelope{1, -1, 3, 2}) {
		t.Errorf("multipoint envelope = %+v", mpt.Envelope())
	}
}

// Property: a point sampled inside a convex polygon via barycentric mixing
// is always reported inside.
func TestPointInPolygonPropertyConvex(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random triangle with non-zero area.
		a := Point{r.Float64() * 10, r.Float64() * 10}
		b := Point{a.X + 1 + r.Float64()*5, a.Y + r.Float64()}
		c := Point{a.X + r.Float64(), a.Y + 1 + r.Float64()*5}
		tri := &Polygon{Shell: []Point{a, b, c, a}}
		// Barycentric interior point.
		u, v := r.Float64(), r.Float64()
		if u+v > 1 {
			u, v = 1-u, 1-v
		}
		w := 1 - u - v
		p := Point{u*a.X + v*b.X + w*c.X, u*a.Y + v*b.Y + w*c.Y}
		return PointInPolygon(p, tri)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("interior point not detected: %v", err)
	}
}

// Property: Intersects agrees between a polygon and its envelope-polygon for
// axis-aligned rectangles (where MBR == geometry).
func TestRectangleIntersectsMatchesEnvelope(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(23))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e1, e2 := randomEnvelope(r), randomEnvelope(r)
		p1, p2 := e1.ToPolygon(), e2.ToPolygon()
		return Intersects(p1, p2) == e1.Intersects(e2)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("rectangle intersects disagrees with envelope algebra: %v", err)
	}
}

// polylinesCrossRef is the all-pairs kernel polylinesCross replaced: every
// segment pair whose closed envelopes meet goes to SegmentsIntersect. The
// join oracle calls Intersects too, so only this comparison can catch a
// window filter that drops a pair.
func polylinesCrossRef(a, b []Point) bool {
	for i := 1; i < len(a); i++ {
		sa := refSegmentEnvelope(a[i-1], a[i])
		for j := 1; j < len(b); j++ {
			if sa.Intersects(refSegmentEnvelope(b[j-1], b[j])) && SegmentsIntersect(a[i-1], a[i], b[j-1], b[j]) {
				return true
			}
		}
	}
	return false
}

func refSegmentEnvelope(p, q Point) Envelope {
	return Envelope{math.Min(p.X, q.X), math.Min(p.Y, q.Y), math.Max(p.X, q.X), math.Max(p.Y, q.Y)}
}

// checkCross fails the test if the windowed kernel and the reference
// disagree on (a, b) in either operand order, and returns the answer.
func checkCross(t *testing.T, a, b []Point, origin string) bool {
	t.Helper()
	want := polylinesCrossRef(a, b)
	if got := polylinesCross(a, EnvelopeOf(a), b, EnvelopeOf(b)); got != want {
		t.Fatalf("%s: polylinesCross = %v, reference %v\na = %v\nb = %v", origin, got, want, a, b)
	}
	if got := polylinesCross(b, EnvelopeOf(b), a, EnvelopeOf(a)); got != want {
		t.Fatalf("%s: polylinesCross (swapped) = %v, reference %v\na = %v\nb = %v", origin, got, want, a, b)
	}
	return want
}

// gridCoord draws a coordinate from a small grid, so vertices coincide and
// segments overlap collinearly, from the window edges when given (the
// envelope bounds of the other run), and nudges a third of them one ulp
// either way.
func gridCoord(r *rand.Rand, edges ...float64) float64 {
	v := float64(r.Intn(7))
	if len(edges) > 0 && r.Intn(3) == 0 {
		v = edges[r.Intn(len(edges))]
	}
	switch r.Intn(6) {
	case 0:
		v = math.Nextafter(v, math.Inf(1))
	case 1:
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// randomRun draws one vertex run. other, when non-nil, is the envelope of
// the run it will be tested against: coordinates then snap to its edges
// often, putting segments exactly on the edges of the overlap window.
func randomRun(r *rand.Rand, other *Envelope) []Point {
	var xs, ys []float64
	if other != nil {
		xs, ys = []float64{other.MinX, other.MaxX}, []float64{other.MinY, other.MaxY}
	}
	pt := func() Point { return Point{gridCoord(r, xs...), gridCoord(r, ys...)} }
	n := 1 + r.Intn(8)
	if r.Intn(10) == 0 {
		n = 130 + r.Intn(300) // more window survivors than the kernel buffers at once
	}
	pts := []Point{pt()}
	switch r.Intn(5) {
	case 0: // free polyline
		for len(pts) < n {
			pts = append(pts, pt())
		}
	case 1: // horizontal and vertical segments only
		for len(pts) < n {
			p, q := pts[len(pts)-1], pt()
			if r.Intn(2) == 0 {
				q.Y = p.Y
			} else {
				q.X = p.X
			}
			pts = append(pts, q)
		}
	case 2: // zero-area ring: out along one line and back
		d := Point{float64(r.Intn(3) - 1), float64(r.Intn(3) - 1)}
		for k := 1; k <= n/2; k++ {
			pts = append(pts, Point{pts[0].X + float64(k)*d.X, pts[0].Y + float64(k)*d.Y})
		}
		for k := len(pts) - 2; k >= 0; k-- {
			pts = append(pts, pts[k])
		}
	case 3: // closed ring
		for len(pts) < n+2 {
			pts = append(pts, pt())
		}
		pts = append(pts, pts[0])
	case 4: // lake-like star ring, off the grid
		c := Point{r.Float64() * 6, r.Float64() * 6}
		pts = starRing(r, c, 3+n, 0.5+r.Float64()*2)
	}
	return pts
}

// TestPolylinesCrossMatchesReference holds the windowed kernel to the
// all-pairs reference on seeded random runs biased toward its edge cases:
// shared vertices, collinear overlaps, axis-parallel and zero-area rings,
// segments on the window's edges, coordinates one ulp apart, and runs with
// more window survivors than one buffer chunk.
func TestPolylinesCrossMatchesReference(t *testing.T) {
	const cases = 20000
	hits := 0
	for seed := int64(1); seed <= cases; seed++ {
		r := rand.New(rand.NewSource(seed))
		a := randomRun(r, nil)
		ea := EnvelopeOf(a)
		b := randomRun(r, &ea)
		if checkCross(t, a, b, fmt.Sprintf("seed %d", seed)) {
			hits++
		}
	}
	// Guard against a generator that drifted into all-hit or all-miss
	// cases, where agreement would prove little.
	if hits < cases/10 || hits > cases*9/10 {
		t.Fatalf("%d of %d random cases cross: the generator no longer exercises both answers", hits, cases)
	}
}

// decodeRun turns fuzz bytes into vertices, two bytes per vertex: each
// byte gives a coordinate on an eighth-step grid in [0, 8) with an
// optional one-ulp nudge, so coincidences stay likely.
func decodeRun(data []byte) []Point {
	coord := func(c byte) float64 {
		v := float64(c&7) + float64(c>>5)/8
		switch (c >> 3) & 3 {
		case 1:
			v = math.Nextafter(v, math.Inf(1))
		case 2:
			v = math.Nextafter(v, math.Inf(-1))
		}
		return v
	}
	pts := make([]Point, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		pts = append(pts, Point{coord(data[i]), coord(data[i+1])})
	}
	return pts
}

// FuzzPolylinesCross holds the windowed kernel to the all-pairs reference
// on fuzzer-chosen runs; split divides the decoded vertices between them.
func FuzzPolylinesCross(f *testing.F) {
	f.Add([]byte{0, 0, 2, 2, 0, 2, 2, 0}, uint8(2))                   // proper crossing
	f.Add([]byte{0, 0, 1, 1, 1, 1, 2, 0}, uint8(2))                   // shared vertex
	f.Add([]byte{0, 0, 2, 0, 1, 0, 3, 0}, uint8(2))                   // collinear overlap
	f.Add([]byte{0, 0, 4, 0, 4, 4, 0, 0, 4, 0, 6, 0, 6, 2}, uint8(4)) // on the window edge
	f.Add([]byte{0, 0, 2, 0, 1, 8, 1, 4}, uint8(2))                   // one ulp above
	f.Add([]byte{0, 0, 2, 0, 1, 0, 1, 0, 1, 0}, uint8(2))             // zero-area ring
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		pts := decodeRun(data)
		k := int(split) % (len(pts) + 1)
		checkCross(t, pts[:k], pts[k:], fmt.Sprintf("input %x split %d", data, split))
	})
}
