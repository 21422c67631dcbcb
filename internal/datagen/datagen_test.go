package datagen

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/pfs"
	"repro/internal/wkb"
	"repro/internal/wkt"
)

func TestPresetsSane(t *testing.T) {
	for _, spec := range AllDatasets() {
		if spec.FullBytes <= 0 || spec.FullCount <= 0 {
			t.Errorf("%s: zero size/count", spec.Name)
		}
		if spec.AvgRecordBytes() < 20 {
			t.Errorf("%s: implausible mean record %f", spec.Name, spec.AvgRecordBytes())
		}
		if spec.DefaultScale < 1 {
			t.Errorf("%s: missing default scale", spec.Name)
		}
	}
	// Table ordering and identity.
	names := []string{"cemetery", "lakes", "roads", "allobjects", "roadnetwork", "allnodes"}
	for i, spec := range AllDatasets() {
		if spec.Name != names[i] {
			t.Errorf("dataset %d = %s, want %s", i, spec.Name, names[i])
		}
	}
}

func TestGenerateParsesAndCounts(t *testing.T) {
	// Generate Cemetery at high scale and validate every record parses to
	// the declared shape class.
	spec := Cemetery()
	var buf bytes.Buffer
	stats, err := Generate(spec, 256, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records == 0 || stats.Bytes != int64(buf.Len()) {
		t.Fatalf("stats = %+v, buffer %d", stats, buf.Len())
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := int64(0)
	for sc.Scan() {
		g, err := wkt.Parse(sc.Bytes())
		if err != nil {
			t.Fatalf("record %d: %v\n%s", lines, err, sc.Text())
		}
		if g.GeomType() != geom.TypePolygon {
			t.Fatalf("record %d: type %v", lines, g.GeomType())
		}
		lines++
	}
	if lines != stats.Records {
		t.Errorf("lines=%d records=%d", lines, stats.Records)
	}
}

func TestGenerateShapeClasses(t *testing.T) {
	cases := []struct {
		spec Spec
		typ  geom.Type
	}{
		{RoadNetwork(), geom.TypeLineString},
		{AllNodes(), geom.TypePoint},
		{Lakes(), geom.TypePolygon},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		// Very high scale keeps the test fast.
		if _, err := Generate(c.spec, 1e5, &buf); err != nil {
			t.Fatalf("%s: %v", c.spec.Name, err)
		}
		line, _, _ := bufio.NewReader(&buf).ReadLine()
		g, err := wkt.Parse(line)
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Name, err)
		}
		if g.GeomType() != c.typ {
			t.Errorf("%s: first record type %v, want %v", c.spec.Name, g.GeomType(), c.typ)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := Generate(Lakes(), 1e4, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(Lakes(), 1e4, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("generation is not deterministic for a fixed seed")
	}
}

func TestGenerateTargetsScaledSize(t *testing.T) {
	spec := Lakes()
	scale := 2048.0
	var buf bytes.Buffer
	stats, err := Generate(spec, scale, &buf)
	if err != nil {
		t.Fatal(err)
	}
	target := float64(spec.FullBytes) / scale
	if f := float64(stats.Bytes) / target; f < 0.95 || f > 1.3 {
		t.Errorf("generated %d bytes for target %.0f (ratio %.2f)", stats.Bytes, target, f)
	}
	// Record count should land near FullCount/scale: the vertex
	// distribution approximates the Table 3 mean record size.
	wantCount := float64(spec.FullCount) / scale
	if f := float64(stats.Records) / wantCount; f < 0.5 || f > 2.0 {
		t.Errorf("generated %d records for target %.0f (ratio %.2f)", stats.Records, wantCount, f)
	}
}

func TestGenerateSpatialSkew(t *testing.T) {
	// Clustered generation must NOT be uniform: the densest decile of a
	// coarse grid should hold far more than 10% of the records. Lakes is
	// the strongly-clustered preset (Roads is deliberately spread wide).
	var buf bytes.Buffer
	if _, err := Generate(Lakes(), 2e3, &buf); err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	total := 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		g, err := wkt.Parse(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		c := g.Envelope().Center()
		cell := int((c.X+180)/36) + 10*int((c.Y+90)/18) // 10x10 world grid
		counts[cell]++
		total++
	}
	maxCell := 0
	for _, n := range counts {
		if n > maxCell {
			maxCell = n
		}
	}
	if total < 100 {
		t.Skipf("too few records (%d) for skew check", total)
	}
	if float64(maxCell)/float64(total) < 0.05 {
		t.Errorf("densest cell holds %d/%d records; expected spatial skew", maxCell, total)
	}
}

func TestGenerateFileSetsScale(t *testing.T) {
	fs, err := pfs.New(pfs.CometLustre())
	if err != nil {
		t.Fatal(err)
	}
	f, stats, err := GenerateFile(Cemetery(), 512, fs, "cem.wkt", 4, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if f.Scale() != 512 {
		t.Errorf("scale = %v", f.Scale())
	}
	if f.Size() != stats.Bytes {
		t.Errorf("file size %d != stats bytes %d", f.Size(), stats.Bytes)
	}
	if f.VirtualSize() < int64(0.9*56e6) {
		t.Errorf("virtual size %d too small for 56 MB dataset", f.VirtualSize())
	}
}

func TestHeavyTail(t *testing.T) {
	// All Objects carries the ~11 MB worst-case records; at scale 4096
	// the max record should be far above the mean.
	var buf bytes.Buffer
	spec := AllObjects()
	stats, err := Generate(spec, float64(spec.DefaultScale), &buf)
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(stats.Bytes) / float64(stats.Records)
	if float64(stats.MaxRecordBytes) < 4*mean {
		t.Errorf("max record %d vs mean %.0f: heavy tail missing", stats.MaxRecordBytes, mean)
	}
}

func TestPolygonRingsClosed(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Generate(Lakes(), 5e4, &buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		g, err := wkt.ParseString(line)
		if err != nil {
			t.Fatalf("%v in %q", err, line)
		}
		poly := g.(*geom.Polygon)
		if poly.Shell[0] != poly.Shell[len(poly.Shell)-1] {
			t.Fatal("open ring emitted")
		}
	}
}

// TestGenerateEncodedWKB: the binary variant must produce a stream of
// decodable length-prefixed records whose count and byte total match the
// reported stats, with the same feature sequence as the text variant.
func TestGenerateEncodedWKB(t *testing.T) {
	spec := Cemetery()
	var bin bytes.Buffer
	stats, err := GenerateEncoded(spec, 512, EncodingWKB, &bin)
	if err != nil {
		t.Fatal(err)
	}
	if int64(bin.Len()) != stats.Bytes {
		t.Errorf("stream holds %d bytes, stats say %d", bin.Len(), stats.Bytes)
	}
	// Cluster centers are clamped to the world; a polygon ring can reach a
	// few degrees past them (max base radius 3 * max radius factor 1.5).
	world := geom.Envelope{MinX: -185, MinY: -95, MaxX: 185, MaxY: 95}
	var records int64
	buf := bin.Bytes()
	for len(buf) > 0 {
		g, n, err := wkb.DecodeFramed(buf)
		if err != nil {
			t.Fatalf("record %d: %v", records, err)
		}
		if g.GeomType() != spec.Shape {
			t.Fatalf("record %d: shape %s, want %s", records, g.GeomType(), spec.Shape)
		}
		if env := g.Envelope(); env.IsEmpty() || world.Union(env) != world {
			t.Fatalf("record %d escapes the world: %+v", records, env)
		}
		buf = buf[n:]
		records++
	}
	if records != stats.Records {
		t.Errorf("decoded %d records, stats say %d", records, stats.Records)
	}

	// Same spec, same scale, text encoding: the random streams march in
	// lockstep, so the k-th WKB record is the k-th WKT record's feature
	// (coordinates modulo WKT's 5-decimal rounding). Compare the prefix the
	// two byte budgets share.
	var txt bytes.Buffer
	if _, err := GenerateEncoded(spec, 512, EncodingWKT, &txt); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(txt.String()), "\n")
	buf = bin.Bytes()
	for i := 0; i < len(lines) && len(buf) > 0; i++ {
		bg, n, err := wkb.DecodeFramed(buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[n:]
		tg, err := wkt.ParseString(lines[i])
		if err != nil {
			t.Fatal(err)
		}
		if bg.NumPoints() != tg.NumPoints() {
			t.Fatalf("record %d: wkb has %d vertices, wkt has %d", i, bg.NumPoints(), tg.NumPoints())
		}
		be, te := bg.Envelope(), tg.Envelope()
		const tol = 1e-4 // WKT rounds to 5 decimals
		if abs(be.MinX-te.MinX) > tol || abs(be.MinY-te.MinY) > tol ||
			abs(be.MaxX-te.MaxX) > tol || abs(be.MaxY-te.MaxY) > tol {
			t.Fatalf("record %d: envelopes diverge: %+v vs %+v", i, be, te)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestZipfSkewKnob: the ZipfSkew knob must sharpen the cluster-weight
// distribution — the Hotspot preset concentrates a larger share of its
// records in the densest coarse-grid cell than the same spec at the
// default exponent — while staying deterministic under the existing seed
// scheme, and a zero knob must reproduce the default-weight stream
// byte-for-byte (so the Table 3 presets are untouched).
func TestZipfSkewKnob(t *testing.T) {
	densestShare := func(spec Spec, scale float64) float64 {
		var buf bytes.Buffer
		if _, err := Generate(spec, scale, &buf); err != nil {
			t.Fatal(err)
		}
		counts := make(map[int]int)
		total := 0
		sc := bufio.NewScanner(&buf)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			g, err := wkt.Parse(sc.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			c := g.Envelope().Center()
			cell := int((c.X+180)/36) + 10*int((c.Y+90)/18)
			counts[cell]++
			total++
		}
		if total < 500 {
			t.Fatalf("too few records (%d) for a share estimate", total)
		}
		maxCell := 0
		for _, n := range counts {
			if n > maxCell {
				maxCell = n
			}
		}
		return float64(maxCell) / float64(total)
	}

	hot := Hotspot()
	if hot.ZipfSkew <= 1 {
		t.Fatalf("Hotspot.ZipfSkew = %v; the stress preset must be steeper than Zipf(1)", hot.ZipfSkew)
	}
	flat := hot
	flat.ZipfSkew = 0 // falls back to the default 0.8 exponent
	hotShare := densestShare(hot, hot.DefaultScale)
	flatShare := densestShare(flat, hot.DefaultScale)
	if hotShare <= flatShare {
		t.Errorf("densest-cell share %.3f at skew %v is not above %.3f at the default", hotShare, hot.ZipfSkew, flatShare)
	}
	if hotShare < 0.5 {
		t.Errorf("densest-cell share %.3f; the extreme preset should pile a majority into one region", hotShare)
	}

	// Deterministic: two runs of the preset are byte-identical.
	var a, b bytes.Buffer
	if _, err := Generate(hot, 1e4, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(hot, 1e4, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Hotspot generation is not deterministic for a fixed seed")
	}

	// A zero knob is exactly the pre-knob generator: setting 0.8 explicitly
	// changes nothing.
	legacy := Lakes()
	explicit := legacy
	explicit.ZipfSkew = 0.8
	var l0, l1 bytes.Buffer
	if _, err := Generate(legacy, 1e4, &l0); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(explicit, 1e4, &l1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l0.Bytes(), l1.Bytes()) {
		t.Error("ZipfSkew=0 does not reproduce the default 0.8 stream")
	}
}

// TestGenerateFileEncodedTagsScale mirrors GenerateFile's contract for the
// binary variant.
func TestGenerateFileEncodedTagsScale(t *testing.T) {
	fs, err := pfs.New(pfs.RogerGPFS())
	if err != nil {
		t.Fatal(err)
	}
	f, stats, err := GenerateFileEncoded(Cemetery(), 1024, EncodingWKB, fs, "cemetery.wkb", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != stats.Bytes {
		t.Errorf("file size %d, stats %d", f.Size(), stats.Bytes)
	}
	if f.Scale() != 1024 {
		t.Errorf("scale tag = %v, want 1024", f.Scale())
	}
}
