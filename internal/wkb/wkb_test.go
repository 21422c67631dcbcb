package wkb

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func pt(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }

func env(minX, minY, maxX, maxY float64) geom.Envelope {
	return geom.Envelope{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

func TestEncodeDecodePoint(t *testing.T) {
	p := pt(30, 10)
	buf := Encode(p)
	if len(buf) != 1+4+16 {
		t.Errorf("point WKB length = %d, want 21", len(buf))
	}
	g, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if g != p {
		t.Errorf("round trip = %+v", g)
	}
}

func TestEncodeDecodeAllTypes(t *testing.T) {
	geoms := []geom.Geometry{
		pt(1.5, -2.25),
		&geom.LineString{Pts: []geom.Point{pt(0, 0), pt(1, 1), pt(2, 0)}},
		&geom.Polygon{
			Shell: []geom.Point{pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 0)},
			Holes: [][]geom.Point{{pt(1, 1), pt(2, 1), pt(2, 2), pt(1, 1)}},
		},
		&geom.MultiPoint{Pts: []geom.Point{pt(1, 2), pt(3, 4)}},
		&geom.MultiLineString{Lines: []geom.LineString{
			{Pts: []geom.Point{pt(0, 0), pt(1, 1)}},
			{Pts: []geom.Point{pt(5, 5), pt(6, 6), pt(7, 5)}},
		}},
		&geom.MultiPolygon{Polys: []geom.Polygon{
			{Shell: []geom.Point{pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 0)}},
			{Shell: []geom.Point{pt(9, 9), pt(10, 9), pt(10, 10), pt(9, 9)}},
		}},
	}
	for _, want := range geoms {
		buf := Encode(want)
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("%T: %v", want, err)
		}
		if n != len(buf) {
			t.Errorf("%T: consumed %d of %d", want, n, len(buf))
		}
		// The decoder primes envelope caches; computing the literal side's
		// envelope puts both in the same cache state, so DeepEqual also
		// verifies the primed MBR is bit-identical to the lazy one.
		want.Envelope()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T round trip mismatch:\n got %+v\nwant %+v", want, got, want)
		}
	}
}

func TestDecodeConcatenatedStream(t *testing.T) {
	// The all-to-all exchange sends many geometries back to back in a single
	// buffer; Decode must consume them one at a time.
	var buf []byte
	want := []geom.Geometry{
		pt(1, 2),
		&geom.LineString{Pts: []geom.Point{pt(0, 0), pt(3, 3)}},
		pt(-5, 5),
	}
	for _, g := range want {
		buf = Append(buf, g)
	}
	var got []geom.Geometry
	for len(buf) > 0 {
		g, n, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, g)
		buf = buf[n:]
	}
	for _, g := range want {
		g.Envelope() // match the decoder's primed cache state
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stream decode mismatch: %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"bad-order", []byte{0, 1, 0, 0, 0}},
		{"truncated-header", []byte{1, 1}},
		{"truncated-point", append([]byte{1, 1, 0, 0, 0}, make([]byte, 8)...)},
		{"bad-code", []byte{1, 99, 0, 0, 0, 0, 0, 0, 0}},
		{"huge-count", append([]byte{1, 2, 0, 0, 0}, 0xff, 0xff, 0xff, 0x7f)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if g, _, err := Decode(c.buf); err == nil {
				t.Errorf("Decode succeeded with %+v, want error", g)
			}
		})
	}
}

// encodeRects lays MBRs out as consecutive fixed records.
func encodeRects(rects []geom.Envelope) []byte {
	var dst []byte
	for _, e := range rects {
		dst = AppendRect(dst, e)
	}
	return dst
}

func TestRectRecords(t *testing.T) {
	rects := []geom.Envelope{
		env(0, 0, 1, 1),
		env(-5, -5, 5, 5),
		env(2.5, 3.5, 2.5, 3.5),
	}
	buf := encodeRects(rects)
	if len(buf) != len(rects)*RectRecordSize {
		t.Fatalf("encoded length = %d", len(buf))
	}
	got, err := DecodeRects(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rects) {
		t.Errorf("rect round trip = %+v", got)
	}
	if _, err := DecodeRect(buf[:31]); err == nil {
		t.Error("short rect decode should fail")
	}
}

// Property: WKB round-trips arbitrary random polygons exactly (float64 bits
// are preserved verbatim).
func TestWKBRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(20)
		shell := make([]geom.Point, 0, n+1)
		for i := 0; i < n; i++ {
			shell = append(shell, pt(r.NormFloat64()*100, r.NormFloat64()*100))
		}
		shell = append(shell, shell[0])
		want := &geom.Polygon{Shell: shell}
		enc := Encode(want)
		got, used, err := Decode(enc)
		if err != nil || used != len(enc) {
			return false
		}
		want.Envelope() // match the decoder's primed cache state
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("WKB round-trip property failed: %v", err)
	}
}

func TestDecodeTrailingBytesIgnored(t *testing.T) {
	buf := Encode(pt(1, 2))
	buf = append(buf, 0xde, 0xad)
	g, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf)-2 {
		t.Errorf("consumed %d, want %d", n, len(buf)-2)
	}
	if g != pt(1, 2) {
		t.Errorf("got %+v", g)
	}
}

// TestEnvelopePrimedAtDecode pins envelope-at-parse for the binary decoder:
// a freshly decoded geometry's envelope cache is primed during the
// coordinate scan, so mutating the vertices afterwards does not change the
// envelope.
func TestEnvelopePrimedAtDecode(t *testing.T) {
	src := &geom.Polygon{Shell: []geom.Point{pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 0)}}
	g, _, err := Decode(Encode(src))
	if err != nil {
		t.Fatal(err)
	}
	poly := g.(*geom.Polygon)
	want := env(0, 0, 4, 4)
	if got := poly.Envelope(); got != want {
		t.Fatalf("decoded envelope = %+v, want %+v", got, want)
	}
	poly.Shell[1] = pt(1e9, 1e9)
	if got := poly.Envelope(); got != want {
		t.Errorf("envelope not primed at decode: got %+v after mutation", got)
	}
}
