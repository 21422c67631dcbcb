package mpiio

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

func newTestFile(t *testing.T, params pfs.Params, stripeCount int, stripeSize int64) *pfs.File {
	t.Helper()
	fs, err := pfs.New(params)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("w.bin", stripeCount, stripeSize)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWriteAtAllRoundTrip: MPI_File_write_at_all is WriteViewAll without
// a view; a collective write by equal partitions must produce exactly the
// sequential concatenation.
func TestWriteAtAllRoundTrip(t *testing.T) {
	for _, ranks := range []int{1, 3, 5, 8} {
		pf := newTestFile(t, pfs.CometLustre(), 4, 4096)
		const per = 10_000
		err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
			f := Open(c, pf, Hints{})
			buf := make([]byte, per)
			for i := range buf {
				buf[i] = byte(c.Rank()*31 + i)
			}
			_, err := f.WriteViewAll(buf, int64(c.Rank())*per)
			return err
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if pf.Size() != int64(ranks)*per {
			t.Fatalf("ranks=%d: size %d, want %d", ranks, pf.Size(), ranks*per)
		}
		got := make([]byte, pf.Size())
		pf.ReadAt(got, 0)
		for r := 0; r < ranks; r++ {
			for i := 0; i < per; i++ {
				if got[r*per+i] != byte(r*31+i) {
					t.Fatalf("ranks=%d: byte (%d,%d) corrupted", ranks, r, i)
				}
			}
		}
	}
}

// TestWriteAtAllPreservesUntouchedBytes: writing a sub-range at an
// explicit offset must leave surrounding content intact
// (read-modify-write at the aggregators).
func TestWriteAtAllPreservesUntouchedBytes(t *testing.T) {
	pf := newTestFile(t, pfs.RogerGPFS(), 0, 0)
	orig := make([]byte, 50_000)
	for i := range orig {
		orig[i] = byte(i % 251)
	}
	pf.Write(orig)

	err := mpi.Run(cluster.Local(4), func(c *mpi.Comm) error {
		f := Open(c, pf, Hints{})
		// Only rank 2 writes, into the middle.
		var buf []byte
		off := int64(0)
		if c.Rank() == 2 {
			buf = bytes.Repeat([]byte{0xAA}, 1000)
			off = 20_000
		}
		_, err := f.WriteViewAll(buf, off)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(orig))
	pf.ReadAt(got, 0)
	for i := range got {
		want := orig[i]
		if i >= 20_000 && i < 21_000 {
			want = 0xAA
		}
		if got[i] != want {
			t.Fatalf("byte %d = %x, want %x", i, got[i], want)
		}
	}
}

// TestWriteViewAllInterleaved: round-robin block views from all ranks must
// interleave into the correct sequential file (the Figure 4 output
// pattern).
func TestWriteViewAllInterleaved(t *testing.T) {
	const ranks = 4
	const block = 100
	const blocksPerRank = 7
	pf := newTestFile(t, pfs.CometLustre(), 4, 512)
	err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
		f := Open(c, pf, Hints{})
		rec, err := mpi.TypeContiguous(block, mpi.Byte)
		if err != nil {
			return err
		}
		ft, err := mpi.TypeVector(blocksPerRank, 1, ranks, rec)
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank()*block), mpi.Byte, ft); err != nil {
			return err
		}
		buf := make([]byte, blocksPerRank*block)
		for i := range buf {
			buf[i] = byte(c.Rank())
		}
		_, err = f.WriteViewAll(buf, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(ranks * blocksPerRank * block)
	if pf.Size() != want {
		t.Fatalf("size %d, want %d", pf.Size(), want)
	}
	got := make([]byte, pf.Size())
	pf.ReadAt(got, 0)
	for i := range got {
		if wantOwner := byte((i / block) % ranks); got[i] != wantOwner {
			t.Fatalf("byte %d owned by %d, want %d", i, got[i], wantOwner)
		}
	}
}

// TestWriteThenReadViewRoundTrip: data written through a view must read
// back identically through the same view.
func TestWriteThenReadViewRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(12))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ranks := 1 + r.Intn(5)
		block := 16 * (1 + r.Intn(20))
		blocks := 1 + r.Intn(10)
		pf := newTestFile(t, pfs.CometLustre(), 1+r.Intn(8), int64(256*(1+r.Intn(8))))
		ok := true
		err := mpi.Run(cluster.Local(ranks), func(c *mpi.Comm) error {
			f := Open(c, pf, Hints{})
			rec, err := mpi.TypeContiguous(block, mpi.Byte)
			if err != nil {
				return err
			}
			ft, err := mpi.TypeVector(blocks, 1, ranks, rec)
			if err != nil {
				return err
			}
			if err := f.SetView(int64(c.Rank()*block), mpi.Byte, ft); err != nil {
				return err
			}
			out := make([]byte, blocks*block)
			rr := rand.New(rand.NewSource(seed + int64(c.Rank())))
			rr.Read(out)
			if _, err := f.WriteViewAll(out, 0); err != nil {
				return err
			}
			back := make([]byte, len(out))
			if _, err := f.ReadViewAll(back, 0); err != nil && err != io.EOF {
				return err
			}
			if !bytes.Equal(out, back) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestWriteAtAllROMIOLimit: the 2 GB single-operation limit applies to
// writes exactly as to reads.
func TestWriteAtAllROMIOLimit(t *testing.T) {
	pf := newTestFile(t, pfs.CometLustre(), 4, 1<<20)
	pf.Write(make([]byte, 1024))
	pf.SetScale(1 << 22) // every real byte stands for 4 MB
	err := mpi.Run(cluster.Local(2), func(c *mpi.Comm) error {
		f := Open(c, pf, Hints{})
		buf := make([]byte, 1024) // 4 GB virtual
		_, err := f.WriteViewAll(buf, 0)
		if c.Rank() == 0 && err == nil {
			t.Error("expected ROMIO limit error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
