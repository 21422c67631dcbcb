package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

func f64buf(vals ...float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func f64vals(buf []byte) []float64 {
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var mu sync.Mutex
			phase1 := 0
			run(t, n, func(c *Comm) error {
				mu.Lock()
				phase1++
				mu.Unlock()
				if err := c.Barrier(); err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				if phase1 != n {
					return fmt.Errorf("rank %d passed barrier with %d/%d arrivals", c.Rank(), phase1, n)
				}
				return nil
			})
		})
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 16} {
		for _, root := range []int{0, n - 1} {
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				run(t, n, func(c *Comm) error {
					buf := make([]byte, 32)
					if c.Rank() == root {
						for i := range buf {
							buf[i] = byte(i * 3)
						}
					}
					if err := c.Bcast(buf, root); err != nil {
						return err
					}
					for i := range buf {
						if buf[i] != byte(i*3) {
							return fmt.Errorf("rank %d byte %d = %d", c.Rank(), i, buf[i])
						}
					}
					return nil
				})
			})
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			run(t, n, func(c *Comm) error {
				data := bytes.Repeat([]byte{byte(c.Rank() + 1)}, (c.Rank()%3)+1)
				got, err := c.Allgather(data)
				if err != nil {
					return err
				}
				if len(got) != n {
					return fmt.Errorf("got %d blocks", len(got))
				}
				for r := 0; r < n; r++ {
					want := bytes.Repeat([]byte{byte(r + 1)}, (r%3)+1)
					if !bytes.Equal(got[r], want) {
						return fmt.Errorf("rank %d sees block %d = %v, want %v", c.Rank(), r, got[r], want)
					}
				}
				return nil
			})
		})
	}
}

func TestAlltoallv(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			run(t, n, func(c *Comm) error {
				// Rank r sends (r+dst+1) bytes of value r to each dst.
				send := make([][]byte, n)
				recvSizes := make([]int, n)
				for dst := 0; dst < n; dst++ {
					send[dst] = bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+dst+1)
					recvSizes[dst] = dst + c.Rank() + 1
				}
				got, err := c.Alltoallv(send, recvSizes)
				if err != nil {
					return err
				}
				for src := 0; src < n; src++ {
					want := bytes.Repeat([]byte{byte(src)}, src+c.Rank()+1)
					if !bytes.Equal(got[src], want) {
						return fmt.Errorf("rank %d from %d: got %v want %v", c.Rank(), src, got[src], want)
					}
				}
				return nil
			})
		})
	}
}

// Property: Alltoallv conserves bytes — what rank i sends to j is exactly
// what j receives from i, for random size matrices.
func TestAlltoallvConservationProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(3))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		sizes := make([][]int, n) // sizes[i][j] = bytes i sends to j
		for i := range sizes {
			sizes[i] = make([]int, n)
			for j := range sizes[i] {
				sizes[i][j] = r.Intn(2000)
			}
		}
		ok := true
		var mu sync.Mutex
		err := Run(cluster.Local(n), func(c *Comm) error {
			send := make([][]byte, n)
			recvSizes := make([]int, n)
			for j := 0; j < n; j++ {
				send[j] = bytes.Repeat([]byte{byte(c.Rank()*16 + j)}, sizes[c.Rank()][j])
				recvSizes[j] = sizes[j][c.Rank()]
			}
			got, err := c.Alltoallv(send, recvSizes)
			if err != nil {
				return err
			}
			for src := 0; src < n; src++ {
				want := bytes.Repeat([]byte{byte(src*16 + c.Rank())}, sizes[src][c.Rank()])
				if !bytes.Equal(got[src], want) {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("alltoallv conservation failed: %v", err)
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			root := n - 1
			run(t, n, func(c *Comm) error {
				data := f64buf(float64(c.Rank()), 1)
				res, err := c.Reduce(data, 2, Float64, OpSumFloat64, root)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if res != nil {
						return fmt.Errorf("non-root received result")
					}
					return nil
				}
				vals := f64vals(res)
				wantSum := float64(n*(n-1)) / 2
				if vals[0] != wantSum || vals[1] != float64(n) {
					return fmt.Errorf("reduce = %v, want [%v %v]", vals, wantSum, float64(n))
				}
				return nil
			})
		})
	}
}

func TestAllreduceMinMax(t *testing.T) {
	run(t, 5, func(c *Comm) error {
		data := f64buf(float64(c.Rank()))
		minRes, err := c.Allreduce(data, 1, Float64, OpMinFloat64)
		if err != nil {
			return err
		}
		maxRes, err := c.Allreduce(data, 1, Float64, OpMaxFloat64)
		if err != nil {
			return err
		}
		if f64vals(minRes)[0] != 0 || f64vals(maxRes)[0] != 4 {
			return fmt.Errorf("min/max = %v/%v", f64vals(minRes), f64vals(maxRes))
		}
		return nil
	})
}

// opConcat is a deliberately non-commutative (but associative) operator:
// byte-string concatenation over fixed-width 8-byte cells, where each cell
// holds a rank digit. Reducing with it reveals any operand-order violation.
var opConcat = OpCreate("CONCAT", func(in, inout []byte, count int, dt *Datatype) error {
	// inout = in ∘ inout: keep first non-0xFF byte sequence of in, then inout.
	merged := make([]byte, 0, len(in)+len(inout))
	for _, b := range in {
		if b != 0xFF {
			merged = append(merged, b)
		}
	}
	for _, b := range inout {
		if b != 0xFF {
			merged = append(merged, b)
		}
	}
	for i := range inout {
		if i < len(merged) {
			inout[i] = merged[i]
		} else {
			inout[i] = 0xFF
		}
	}
	return nil
})

func TestReduceNonCommutativeOrder(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			run(t, n, func(c *Comm) error {
				// Each rank contributes one digit; result must be 0,1,...,n-1
				// in exact rank order.
				data := bytes.Repeat([]byte{0xFF}, n)
				data[0] = byte(c.Rank())
				res, err := c.Reduce(data, n, Byte, opConcat, 0)
				if err != nil {
					return err
				}
				if c.Rank() != 0 {
					return nil
				}
				for i := 0; i < n; i++ {
					if res[i] != byte(i) {
						return fmt.Errorf("order violated: %v", res)
					}
				}
				return nil
			})
		})
	}
}

func TestScanPrefixProperty(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 12} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			run(t, n, func(c *Comm) error {
				data := f64buf(float64(c.Rank() + 1))
				res, err := c.Scan(data, 1, Float64, OpSumFloat64)
				if err != nil {
					return err
				}
				r := c.Rank()
				want := float64((r + 1) * (r + 2) / 2) // 1+2+...+(r+1)
				if got := f64vals(res)[0]; got != want {
					return fmt.Errorf("rank %d scan = %v, want %v", r, got, want)
				}
				return nil
			})
		})
	}
}

func TestScanNonCommutativeOrder(t *testing.T) {
	n := 6
	run(t, n, func(c *Comm) error {
		data := bytes.Repeat([]byte{0xFF}, n)
		data[0] = byte(c.Rank())
		res, err := c.Scan(data, n, Byte, opConcat)
		if err != nil {
			return err
		}
		// Rank r's scan must be exactly 0..r in order, padded with 0xFF.
		for i := 0; i <= c.Rank(); i++ {
			if res[i] != byte(i) {
				return fmt.Errorf("rank %d scan order violated: %v", c.Rank(), res)
			}
		}
		for i := c.Rank() + 1; i < n; i++ {
			if res[i] != 0xFF {
				return fmt.Errorf("rank %d scan has extra data: %v", c.Rank(), res)
			}
		}
		return nil
	})
}

// Property: Reduce with OpSumFloat64 equals the sequential fold for random
// contributions and rank counts.
func TestReduceMatchesSequentialFoldProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(8))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(9)
		count := 1 + r.Intn(16)
		contribs := make([][]float64, n)
		want := make([]float64, count)
		for i := range contribs {
			contribs[i] = make([]float64, count)
			for j := range contribs[i] {
				contribs[i][j] = float64(r.Intn(1000))
				want[j] += contribs[i][j]
			}
		}
		match := true
		var mu sync.Mutex
		err := Run(cluster.Local(n), func(c *Comm) error {
			res, err := c.Reduce(f64buf(contribs[c.Rank()]...), count, Float64, OpSumFloat64, 0)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got := f64vals(res)
				for j := range want {
					if got[j] != want[j] {
						mu.Lock()
						match = false
						mu.Unlock()
					}
				}
			}
			return nil
		})
		return err == nil && match
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("reduce vs sequential fold failed: %v", err)
	}
}

func TestCollectiveVirtualTimeGrowsWithSize(t *testing.T) {
	// Broadcasting 1 MB must take longer (in virtual time) than 1 KB.
	timeFor := func(size int) float64 {
		var tmax float64
		var mu sync.Mutex
		err := Run(cluster.Comet(2), func(c *Comm) error {
			buf := make([]byte, size)
			if err := c.Bcast(buf, 0); err != nil {
				return err
			}
			mu.Lock()
			if c.Now() > tmax {
				tmax = c.Now()
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return tmax
	}
	small := timeFor(1 << 10)
	big := timeFor(1 << 20)
	if big <= small {
		t.Errorf("bcast virtual time: 1MB=%v <= 1KB=%v", big, small)
	}
}

func TestReduceValidation(t *testing.T) {
	err := Run(cluster.Local(2), func(c *Comm) error {
		_, err := c.Reduce(make([]byte, 7), 1, Float64, OpSumFloat64, 0)
		return err
	})
	if err == nil {
		t.Error("Reduce accepted a misaligned buffer")
	}
}
