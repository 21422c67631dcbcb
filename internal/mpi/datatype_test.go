package mpi

import (
	"slices"
	"testing"
)

// dense is the single run covering the whole extent.
func dense(dt *Datatype) []Block { return []Block{{0, dt.Extent()}} }

func checkBlocks(t *testing.T, dt *Datatype, want []Block) {
	t.Helper()
	if got := dt.Blocks(); !slices.Equal(got, want) {
		t.Errorf("%s blocks = %v, want %v", dt.Name(), got, want)
	}
}

func TestPredefinedTypes(t *testing.T) {
	cases := []struct {
		dt   *Datatype
		size int
	}{
		{Byte, 1}, {Char, 1}, {Int32, 4}, {Int64, 8}, {Float64, 8},
	}
	for _, c := range cases {
		if c.dt.Size() != c.size || c.dt.Extent() != c.size {
			t.Errorf("%s: size=%d extent=%d, want %d", c.dt.Name(), c.dt.Size(), c.dt.Extent(), c.size)
		}
		checkBlocks(t, c.dt, dense(c.dt))
	}
}

func TestTypeContiguous(t *testing.T) {
	// MPI_RECT from the paper: 4 contiguous doubles.
	rect, err := TypeContiguous(4, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if rect.Size() != 32 || rect.Extent() != 32 {
		t.Errorf("rect size=%d extent=%d", rect.Size(), rect.Extent())
	}
	// Contiguous of a dense base coalesces to one dense block.
	checkBlocks(t, rect, dense(rect))
	if _, err := TypeContiguous(-1, Float64); err == nil {
		t.Error("negative count accepted")
	}
}

func TestTypeVector(t *testing.T) {
	// A column of a 4x3 row-major double matrix: the paper's own example of
	// a non-contiguous area (§2).
	col, err := TypeVector(4, 1, 3, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if col.Size() != 32 {
		t.Errorf("size = %d", col.Size())
	}
	if col.Extent() != (3*3+1)*8 {
		t.Errorf("extent = %d, want %d", col.Extent(), (3*3+1)*8)
	}
	// Column 0 of the matrix: doubles 0, 3, 6 and 9.
	checkBlocks(t, col, []Block{{0, 8}, {24, 8}, {48, 8}, {72, 8}})
	if _, err := TypeVector(2, 3, 1, Float64); err == nil {
		t.Error("stride < blockLen accepted")
	}
}

func TestTypeIndexed(t *testing.T) {
	// Variable-length polygons: vertex counts {3,1,2} at displacements
	// {0,5,8} — the paper's §4.1 preprocessing for non-contiguous polygon
	// file views.
	dt, err := TypeIndexed([]int{3, 1, 2}, []int{0, 5, 8}, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Size() != 6*8 {
		t.Errorf("size = %d", dt.Size())
	}
	if dt.Extent() != 10*8 {
		t.Errorf("extent = %d", dt.Extent())
	}
	// Doubles 0-2, 5 and 8-9.
	checkBlocks(t, dt, []Block{{0, 24}, {40, 8}, {64, 16}})
	if _, err := TypeIndexed([]int{1}, []int{1, 2}, Float64); err == nil {
		t.Error("mismatched arrays accepted")
	}
	if _, err := TypeIndexed([]int{-1}, []int{0}, Float64); err == nil {
		t.Error("negative block length accepted")
	}
}

func TestTypeStruct(t *testing.T) {
	// A C struct {int32 id; double x; double y;} with 4 bytes padding after
	// id: offsets 0, 8, 16, extent 24.
	dt, err := TypeStruct([]StructField{
		{Offset: 0, Count: 1, Type: Int32},
		{Offset: 8, Count: 2, Type: Float64},
	}, 24)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Size() != 20 {
		t.Errorf("size = %d, want 20", dt.Size())
	}
	if dt.Extent() != 24 {
		t.Errorf("extent = %d, want 24", dt.Extent())
	}
	// Bytes 0-3 and 8-23; the padding at 4-7 and 24 is not data.
	checkBlocks(t, dt, []Block{{0, 4}, {8, 16}})
	if _, err := TypeStruct([]StructField{{Offset: 0, Count: 1, Type: Float64}}, 4); err == nil {
		t.Error("extent smaller than fields accepted")
	}
}

func TestNestedTypes(t *testing.T) {
	// Compound spatial types by nesting (paper §4.2.1): a fixed-size
	// "polygon" of 3 points, each point 2 doubles.
	point, err := TypeContiguous(2, Float64)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := TypeContiguous(3, point)
	if err != nil {
		t.Fatal(err)
	}
	if tri.Size() != 48 {
		t.Errorf("nested type size=%d", tri.Size())
	}
	checkBlocks(t, tri, dense(tri))
}
