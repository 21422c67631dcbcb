package mpi

import "fmt"

// Datatype describes a (possibly non-contiguous) memory or file layout, the
// reproduction of MPI derived datatypes. A datatype is a list of dense byte
// runs (the flattened typemap) within one extent; count instances of the
// type tile consecutively at extent spacing.
//
// The paper builds three kinds of derived types on top of the predefined
// ones: MPI_Type_contiguous (e.g. MPI_RECT = 4 contiguous doubles),
// MPI_Type_vector for strided file views, and MPI_Type_indexed from
// vertex-count/displacement arrays for variable-length polygons (§4.1), plus
// MPI_Type_struct for fixed records (Figure 12). All four are here.
type Datatype struct {
	name   string
	size   int // sum of block lengths (bytes of real data per instance)
	extent int // spacing between consecutive instances
	blocks []Block
}

// Block is one dense run of bytes at Off within the datatype's extent.
type Block struct {
	Off, Len int
}

// Predefined basic datatypes.
var (
	Byte    = &Datatype{name: "MPI_BYTE", size: 1, extent: 1, blocks: []Block{{0, 1}}}
	Char    = &Datatype{name: "MPI_CHAR", size: 1, extent: 1, blocks: []Block{{0, 1}}}
	Int32   = &Datatype{name: "MPI_INT32", size: 4, extent: 4, blocks: []Block{{0, 4}}}
	Int64   = &Datatype{name: "MPI_INT64", size: 8, extent: 8, blocks: []Block{{0, 8}}}
	Float64 = &Datatype{name: "MPI_DOUBLE", size: 8, extent: 8, blocks: []Block{{0, 8}}}
)

// Name returns the datatype's display name.
func (d *Datatype) Name() string { return d.name }

// Size returns the number of real data bytes per instance.
func (d *Datatype) Size() int { return d.size }

// Extent returns the spacing between instances.
func (d *Datatype) Extent() int { return d.extent }

// Blocks returns the flattened typemap of one instance.
func (d *Datatype) Blocks() []Block { return d.blocks }

// coalesce merges adjacent runs so dense composites collapse to one block.
func coalesce(blocks []Block) []Block {
	if len(blocks) == 0 {
		return blocks
	}
	out := blocks[:1]
	for _, b := range blocks[1:] {
		last := &out[len(out)-1]
		if last.Off+last.Len == b.Off {
			last.Len += b.Len
		} else {
			out = append(out, b)
		}
	}
	return out
}

// instantiate repeats base's blocks count times at stride spacing, starting
// at byte offset start.
func instantiate(dst []Block, base *Datatype, start, count, stride int) []Block {
	for i := 0; i < count; i++ {
		off := start + i*stride
		for _, b := range base.blocks {
			dst = append(dst, Block{Off: off + b.Off, Len: b.Len})
		}
	}
	return dst
}

// TypeContiguous builds a datatype of count consecutive instances of base
// (MPI_Type_contiguous). MPI_RECT is TypeContiguous(4, Float64).
func TypeContiguous(count int, base *Datatype) (*Datatype, error) {
	if count < 0 {
		return nil, fmt.Errorf("%w: contiguous count %d", ErrCount, count)
	}
	blocks := instantiate(nil, base, 0, count, base.extent)
	return &Datatype{
		name:   fmt.Sprintf("contig(%d,%s)", count, base.name),
		size:   count * base.size,
		extent: count * base.extent,
		blocks: coalesce(blocks),
	}, nil
}

// TypeVector builds count blocks of blockLen base elements spaced stride
// base-extents apart (MPI_Type_vector). The classic example is a column of
// a row-major 2D array.
func TypeVector(count, blockLen, stride int, base *Datatype) (*Datatype, error) {
	if count < 0 || blockLen < 0 {
		return nil, fmt.Errorf("%w: vector count=%d blockLen=%d", ErrCount, count, blockLen)
	}
	if stride < blockLen {
		return nil, fmt.Errorf("%w: vector stride %d < blockLen %d", ErrCount, stride, blockLen)
	}
	var blocks []Block
	for i := 0; i < count; i++ {
		blocks = instantiate(blocks, base, i*stride*base.extent, blockLen, base.extent)
	}
	extent := 0
	if count > 0 {
		extent = ((count-1)*stride + blockLen) * base.extent
	}
	return &Datatype{
		name:   fmt.Sprintf("vector(%d,%d,%d,%s)", count, blockLen, stride, base.name),
		size:   count * blockLen * base.size,
		extent: extent,
		blocks: coalesce(blocks),
	}, nil
}

// TypeIndexed builds one block per (blockLens[i], displs[i]) pair, both in
// units of base elements (MPI_Type_indexed). The paper creates this type
// from the vertex-count and displacement arrays of variable-length polygons
// to describe non-contiguous file views (§4.1).
func TypeIndexed(blockLens, displs []int, base *Datatype) (*Datatype, error) {
	if len(blockLens) != len(displs) {
		return nil, fmt.Errorf("%w: indexed arrays differ: %d vs %d", ErrCount, len(blockLens), len(displs))
	}
	var blocks []Block
	size := 0
	maxEnd := 0
	for i := range blockLens {
		if blockLens[i] < 0 || displs[i] < 0 {
			return nil, fmt.Errorf("%w: indexed block %d: len=%d displ=%d", ErrCount, i, blockLens[i], displs[i])
		}
		blocks = instantiate(blocks, base, displs[i]*base.extent, blockLens[i], base.extent)
		size += blockLens[i] * base.size
		if end := (displs[i] + blockLens[i]) * base.extent; end > maxEnd {
			maxEnd = end
		}
	}
	return &Datatype{
		name:   fmt.Sprintf("indexed(%d,%s)", len(blockLens), base.name),
		size:   size,
		extent: maxEnd,
		blocks: coalesce(blocks),
	}, nil
}

// StructField describes one field of a TypeStruct: count elements of Type
// at byte Offset.
type StructField struct {
	Offset int
	Count  int
	Type   *Datatype
}

// TypeStruct builds a record type from explicitly placed fields
// (MPI_Type_struct). extent fixes the full record size, allowing trailing
// padding as in C structs.
func TypeStruct(fields []StructField, extent int) (*Datatype, error) {
	var blocks []Block
	size := 0
	maxEnd := 0
	for i, f := range fields {
		if f.Count < 0 || f.Offset < 0 {
			return nil, fmt.Errorf("%w: struct field %d: count=%d offset=%d", ErrCount, i, f.Count, f.Offset)
		}
		blocks = instantiate(blocks, f.Type, f.Offset, f.Count, f.Type.extent)
		size += f.Count * f.Type.size
		if end := f.Offset + f.Count*f.Type.extent; end > maxEnd {
			maxEnd = end
		}
	}
	if extent == 0 {
		extent = maxEnd
	}
	if extent < maxEnd {
		return nil, fmt.Errorf("%w: struct extent %d < field end %d", ErrCount, extent, maxEnd)
	}
	return &Datatype{
		name:   fmt.Sprintf("struct(%d fields)", len(fields)),
		size:   size,
		extent: extent,
		blocks: coalesce(blocks),
	}, nil
}
