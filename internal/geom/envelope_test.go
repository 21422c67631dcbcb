package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyEnvelope(t *testing.T) {
	e := EmptyEnvelope()
	if !e.IsEmpty() {
		t.Fatal("EmptyEnvelope should be empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 {
		t.Errorf("empty envelope has nonzero size: area=%v w=%v h=%v", e.Area(), e.Width(), e.Height())
	}
	if e.Intersects(Envelope{0, 0, 1, 1}) {
		t.Error("empty envelope must not intersect anything")
	}
	if e.Contains(Envelope{0, 0, 1, 1}) || (Envelope{0, 0, 1, 1}).Contains(e) {
		t.Error("containment with empty envelope must be false")
	}
}

func TestEnvelopeUnionBasic(t *testing.T) {
	a := Envelope{0, 0, 1, 1}
	b := Envelope{2, -1, 3, 0.5}
	u := a.Union(b)
	want := Envelope{0, -1, 3, 1}
	if u != want {
		t.Errorf("Union = %+v, want %+v", u, want)
	}
	if got := EmptyEnvelope().Union(a); got != a {
		t.Errorf("empty ∪ a = %+v, want %+v", got, a)
	}
	if got := a.Union(EmptyEnvelope()); got != a {
		t.Errorf("a ∪ empty = %+v, want %+v", got, a)
	}
}

func TestEnvelopeIntersection(t *testing.T) {
	a := Envelope{0, 0, 2, 2}
	b := Envelope{1, 1, 3, 3}
	got := a.Intersection(b)
	want := Envelope{1, 1, 2, 2}
	if got != want {
		t.Errorf("Intersection = %+v, want %+v", got, want)
	}
	c := Envelope{5, 5, 6, 6}
	if !a.Intersection(c).IsEmpty() {
		t.Error("disjoint intersection should be empty")
	}
	// Boundary touch yields a degenerate but non-empty envelope.
	d := Envelope{2, 0, 4, 2}
	touch := a.Intersection(d)
	if touch.IsEmpty() {
		t.Error("touching envelopes should intersect in a degenerate envelope")
	}
	if touch.Area() != 0 {
		t.Errorf("touch area = %v, want 0", touch.Area())
	}
}

func TestEnvelopeIntersectsContains(t *testing.T) {
	a := Envelope{0, 0, 10, 10}
	cases := []struct {
		name       string
		b          Envelope
		intersects bool
		contains   bool
	}{
		{"inside", Envelope{1, 1, 2, 2}, true, true},
		{"equal", a, true, true},
		{"overlap", Envelope{5, 5, 15, 15}, true, false},
		{"edge-touch", Envelope{10, 0, 20, 10}, true, false},
		{"corner-touch", Envelope{10, 10, 20, 20}, true, false},
		{"disjoint", Envelope{11, 11, 12, 12}, false, false},
		{"covering", Envelope{-1, -1, 11, 11}, true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := a.Intersects(c.b); got != c.intersects {
				t.Errorf("Intersects = %v, want %v", got, c.intersects)
			}
			if got := a.Contains(c.b); got != c.contains {
				t.Errorf("Contains = %v, want %v", got, c.contains)
			}
		})
	}
}

func TestEnvelopeExpand(t *testing.T) {
	e := Envelope{0, 0, 2, 2}.ExpandBy(1)
	if e != (Envelope{-1, -1, 3, 3}) {
		t.Errorf("ExpandBy(1) = %+v", e)
	}
	if got := (Envelope{0, 0, 1, 1}).ExpandBy(-2); !got.IsEmpty() {
		t.Errorf("over-shrunk envelope should be empty, got %+v", got)
	}
}

func TestEnvelopeCenterCornersPolygon(t *testing.T) {
	e := Envelope{0, 0, 4, 2}
	if e.Center() != (Point{2, 1}) {
		t.Errorf("Center = %+v", e.Center())
	}
	poly := e.ToPolygon()
	if poly.NumPoints() != 5 {
		t.Errorf("envelope polygon should have 5 vertices, got %d", poly.NumPoints())
	}
	if got := poly.Area(); math.Abs(got-8) > 1e-12 {
		t.Errorf("envelope polygon area = %v, want 8", got)
	}
	if poly.Envelope() != e {
		t.Errorf("round-trip envelope = %+v, want %+v", poly.Envelope(), e)
	}
}

// randomEnvelope builds a non-empty envelope from four floats.
func randomEnvelope(r *rand.Rand) Envelope {
	x1, x2 := r.Float64()*100-50, r.Float64()*100-50
	y1, y2 := r.Float64()*100-50, r.Float64()*100-50
	return Envelope{math.Min(x1, x2), math.Min(y1, y2), math.Max(x1, x2), math.Max(y1, y2)}
}

func TestEnvelopeUnionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cfg := &quick.Config{MaxCount: 500, Rand: r}

	commutative := func(ax, ay, bx, by, aw, ah, bw, bh float64) bool {
		a := Envelope{ax, ay, ax + math.Abs(aw), ay + math.Abs(ah)}
		b := Envelope{bx, by, bx + math.Abs(bw), by + math.Abs(bh)}
		return a.Union(b) == b.Union(a)
	}
	if err := quick.Check(commutative, cfg); err != nil {
		t.Errorf("union not commutative: %v", err)
	}

	associative := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b, c := randomEnvelope(rr), randomEnvelope(rr), randomEnvelope(rr)
		return a.Union(b).Union(c) == a.Union(b.Union(c))
	}
	if err := quick.Check(associative, cfg); err != nil {
		t.Errorf("union not associative: %v", err)
	}

	idempotent := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randomEnvelope(rr)
		return a.Union(a) == a
	}
	if err := quick.Check(idempotent, cfg); err != nil {
		t.Errorf("union not idempotent: %v", err)
	}

	containsBoth := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomEnvelope(rr), randomEnvelope(rr)
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(containsBoth, cfg); err != nil {
		t.Errorf("union does not contain operands: %v", err)
	}
}

func TestEnvelopeIntersectionSymmetry(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomEnvelope(rr), randomEnvelope(rr)
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		// Intersection is non-empty iff Intersects.
		return a.Intersects(b) == !a.Intersection(b).IsEmpty()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("intersects/intersection inconsistent: %v", err)
	}
}
