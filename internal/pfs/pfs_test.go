package pfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func newLustre(t *testing.T) *FS {
	t.Helper()
	fs, err := New(CometLustre())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestCreateOpenReadWrite(t *testing.T) {
	fs := newLustre(t)
	f, err := fs.Create("data.wkt", 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("POLYGON...\n"), 100)
	f.Append(content)
	if f.Size() != int64(len(content)) {
		t.Errorf("Size = %d", f.Size())
	}
	got := make([]byte, 64)
	n, err := f.ReadAt(got, 11)
	if err != nil || n != 64 {
		t.Fatalf("ReadAt: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, content[11:75]) {
		t.Error("ReadAt returned wrong bytes")
	}
}

func TestReadAtEOF(t *testing.T) {
	fs := newLustre(t)
	f, _ := fs.Create("small", 1, 1024)
	f.Write([]byte("0123456789"))
	buf := make([]byte, 20)
	n, err := f.ReadAt(buf, 5)
	if n != 5 || err != io.EOF {
		t.Errorf("partial read: n=%d err=%v", n, err)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("past-end read err = %v", err)
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestStripingDefaults(t *testing.T) {
	fs := newLustre(t)
	f, err := fs.Create("default", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.StripeCount() != 1 || f.StripeSize() != 1<<20 {
		t.Errorf("defaults: count=%d size=%d", f.StripeCount(), f.StripeSize())
	}
	if _, err := fs.Create("toomany", 97, 1024); err == nil {
		t.Error("stripe count > OSTs accepted")
	}
	// GPFS ignores user striping.
	gp, err := New(RogerGPFS())
	if err != nil {
		t.Fatal(err)
	}
	g, err := gp.Create("g", 2, 123)
	if err != nil {
		t.Fatal(err)
	}
	if g.StripeCount() != 32 || g.StripeSize() != 8<<20 {
		t.Errorf("GPFS striping: count=%d size=%d", g.StripeCount(), g.StripeSize())
	}
}

func TestOSTMapping(t *testing.T) {
	fs := newLustre(t)
	f, _ := fs.Create("striped", 4, 100)
	wantOSTs := []int{0, 1, 2, 3, 0, 1}
	for i, want := range wantOSTs {
		if got := f.ostOf(int64(i * 100)); got != want {
			t.Errorf("offset %d -> OST %d, want %d", i*100, got, want)
		}
	}
	// A request spanning stripes decomposes at boundaries.
	var osts []int
	var sizes []int64
	f.chunks(Request{Offset: 50, Length: 200}, func(o int, n int64) {
		osts = append(osts, o)
		sizes = append(sizes, n)
	})
	if len(osts) != 3 || osts[0] != 0 || osts[1] != 1 || osts[2] != 2 {
		t.Errorf("chunk OSTs = %v", osts)
	}
	if sizes[0] != 50 || sizes[1] != 100 || sizes[2] != 50 {
		t.Errorf("chunk sizes = %v", sizes)
	}
}

func TestBatchTimeBasicShape(t *testing.T) {
	fs := newLustre(t)
	f, _ := fs.Create("f", 8, 1<<20)
	f.Write(make([]byte, 64<<20))

	// Bigger reads take longer.
	small, err := f.ReadTime(Request{Offset: 0, Length: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	large, err := f.ReadTime(Request{Offset: 0, Length: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Errorf("32MB read (%v) not slower than 1MB (%v)", large, small)
	}
	if small <= 0 {
		t.Errorf("read time must be positive, got %v", small)
	}
}

func TestBatchContentionSlowsSharedOST(t *testing.T) {
	fs := newLustre(t)
	// One stripe: every request hits the same OST. Requests are large
	// enough that the OST service term (not the client RPC term) dominates.
	f, _ := fs.Create("hot", 1, 1<<20)
	f.Write(make([]byte, 1))
	const reqLen = 64 << 20
	solo, err := f.BatchTime([]Request{{Node: 0, Offset: 0, Length: reqLen}})
	if err != nil {
		t.Fatal(err)
	}
	many := make([]Request, 8)
	for i := range many {
		many[i] = Request{Node: i, Offset: int64(i) * reqLen, Length: reqLen}
	}
	crowd, err := f.BatchTime(many)
	if err != nil {
		t.Fatal(err)
	}
	if crowd[0] <= solo[0] {
		t.Errorf("contended read (%v) not slower than solo (%v)", crowd[0], solo[0])
	}
}

func TestMoreStripesFaster(t *testing.T) {
	fs := newLustre(t)
	narrow, _ := fs.Create("narrow", 2, 1<<20)
	wide, _ := fs.Create("wide", 64, 1<<20)
	data := make([]byte, 128<<20)
	narrow.Write(data)
	wide.Write(data)

	reqs := func() []Request {
		var out []Request
		for i := 0; i < 32; i++ {
			out = append(out, Request{Node: i / 16, Offset: int64(i) * (4 << 20), Length: 4 << 20})
		}
		return out
	}
	nd, err := narrow.BatchTime(reqs())
	if err != nil {
		t.Fatal(err)
	}
	wd, err := wide.BatchTime(reqs())
	if err != nil {
		t.Fatal(err)
	}
	if maxOf(wd) >= maxOf(nd) {
		t.Errorf("64-stripe batch (%v) not faster than 2-stripe (%v)", maxOf(wd), maxOf(nd))
	}
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func TestScaleMultipliesTime(t *testing.T) {
	fs := newLustre(t)
	f, _ := fs.Create("scaled", 8, 1<<20)
	f.Write(make([]byte, 8<<20))
	base, err := f.ReadTime(Request{Length: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	f.SetScale(1024)
	scaled, err := f.ReadTime(Request{Length: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if scaled < base*100 {
		t.Errorf("scale 1024 should dominate: base=%v scaled=%v", base, scaled)
	}
	if f.VirtualSize() != 1024*(8<<20) {
		t.Errorf("VirtualSize = %d", f.VirtualSize())
	}
}

func TestFaultInjection(t *testing.T) {
	fs := newLustre(t)
	f, _ := fs.Create("flaky", 4, 1<<20)
	f.Write(make([]byte, 8<<20))
	boom := errors.New("OST failure")
	fs.InjectFault(func(r Request) error {
		if r.Offset >= 4<<20 {
			return boom
		}
		return nil
	})
	if _, err := f.ReadTime(Request{Offset: 0, Length: 1 << 20}); err != nil {
		t.Errorf("unexpected fault: %v", err)
	}
	if _, err := f.ReadTime(Request{Offset: 5 << 20, Length: 1 << 20}); !errors.Is(err, boom) {
		t.Errorf("fault not injected: %v", err)
	}
	fs.InjectFault(nil)
	if _, err := f.ReadTime(Request{Offset: 5 << 20, Length: 1 << 20}); err != nil {
		t.Errorf("fault not cleared: %v", err)
	}
}

func TestInvalidRequests(t *testing.T) {
	fs := newLustre(t)
	f, _ := fs.Create("v", 4, 1<<20)
	if _, err := f.BatchTime([]Request{{Offset: -1, Length: 10}}); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := f.BatchTime([]Request{{Offset: 0, Length: -10}}); err == nil {
		t.Error("negative length accepted")
	}
	// Zero-length requests cost nothing.
	d, err := f.BatchTime([]Request{{Offset: 0, Length: 0}})
	if err != nil || d[0] != 0 {
		t.Errorf("zero-length request: d=%v err=%v", d, err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Params{Name: "bad"}); err == nil {
		t.Error("New accepted empty params")
	}
}

func TestSetScaleValidation(t *testing.T) {
	fs := newLustre(t)
	f, _ := fs.Create("s", 1, 1024)
	defer func() {
		if recover() == nil {
			t.Error("SetScale(0) should panic")
		}
	}()
	f.SetScale(0)
}
