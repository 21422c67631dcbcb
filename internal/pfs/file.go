package pfs

import (
	"fmt"
	"io"
	"sync"
)

// File is one striped file: real bytes plus the layout that drives the
// timing model. Files are append-written during dataset generation (no
// timing) and read through the model during experiments.
type File struct {
	fs   *FS
	name string

	mu   sync.RWMutex
	data []byte

	stripeCount int
	stripeSize  int64
	scale       float64
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// FS returns the filesystem holding f.
//
//vet:allow deadcode — fault hook access: the chaos tests reach a fixture file's filesystem through it to install read faults
func (f *File) FS() *FS { return f.fs }

// Params returns the cost-model constants of the filesystem holding f.
func (f *File) Params() Params { return f.fs.params }

// StripeCount returns the number of OSTs this file is striped over.
func (f *File) StripeCount() int { return f.stripeCount }

// StripeSize returns the stripe width in virtual (full-scale) bytes. For an
// unscaled file virtual and real bytes coincide.
func (f *File) StripeSize() int64 { return f.stripeSize }

// Scale returns the virtual-bytes-per-real-byte factor.
func (f *File) Scale() float64 { return f.scale }

// SetScale declares that each stored byte stands for s bytes of the paper's
// full-size dataset; timing treats the file as s times larger.
func (f *File) SetScale(s float64) {
	if s <= 0 {
		panic(fmt.Sprintf("pfs: invalid scale %v", s))
	}
	f.scale = s
}

// Size returns the real stored size in bytes.
func (f *File) Size() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.data))
}

// VirtualSize returns the modeled (full-scale) size in bytes.
func (f *File) VirtualSize() int64 {
	return int64(float64(f.Size()) * f.scale)
}

// Append adds raw bytes (dataset generation path; not timed).
func (f *File) Append(p []byte) {
	f.mu.Lock()
	f.data = append(f.data, p...)
	f.mu.Unlock()
}

// Write replaces the whole content (not timed).
func (f *File) Write(p []byte) {
	f.mu.Lock()
	f.data = append(f.data[:0], p...)
	f.mu.Unlock()
}

// WriteAt stores p at offset off, growing the file (zero-filled) if the
// write extends past the current end. This is the data path only;
// durations come from ReadTime/BatchTime, which model reads and writes
// alike.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: negative offset %d", off)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(f.data)) {
		grown := make([]byte, need)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:], p)
	return len(p), nil
}

// ReadAt copies file content into p, returning the bytes copied. io.EOF is
// returned (with partial data) when the read extends past the end. This is
// the data path only; durations come from ReadTime/BatchTime.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if hp := f.fs.readFault.Load(); hp != nil {
		rf := (*hp)(f.name, off, len(p), f.stripeIndex(off))
		if rf.Err != nil {
			return 0, rf.Err
		}
		if rf.Short > 0 && rf.Short < len(p) {
			p = p[:rf.Short]
		}
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("pfs: negative offset %d", off)
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Request describes one process's contiguous read for the timing model.
// Offsets and lengths are in real bytes; Node identifies the issuing
// compute node for injection-cap accounting.
type Request struct {
	Node   int
	Offset int64
	Length int64
}

// virt converts a real byte coordinate to virtual (full-scale) bytes.
func (f *File) virt(real int64) int64 {
	return int64(float64(real) * f.scale)
}

// ostOf returns the OST serving the stripe that contains virtual offset vo.
// Striping lives in virtual coordinates so a scaled file distributes over
// the OSTs exactly like its full-scale original.
func (f *File) ostOf(vo int64) int {
	return int((vo / f.stripeSize) % int64(f.stripeCount))
}

// chunks decomposes a request into per-OST (ost, virtualBytes) pieces along
// virtual stripe boundaries, so both the byte distribution and the RPC
// (chunk) count match the full-scale layout.
func (f *File) chunks(r Request, fn func(ost int, virtualBytes int64)) {
	off, remaining := f.virt(r.Offset), f.virt(r.Length)
	for remaining > 0 {
		inStripe := f.stripeSize - off%f.stripeSize
		n := min(inStripe, remaining)
		fn(f.ostOf(off), n)
		off += n
		remaining -= n
	}
}

// BatchTime models a set of concurrent reads (one collective iteration of
// all ranks) and returns the duration of each request. Any injected fault
// aborts the whole batch.
func (f *File) BatchTime(reqs []Request) ([]float64, error) {
	p := f.fs.params
	f.fs.mu.Lock()
	fault := f.fs.fault
	f.fs.mu.Unlock()
	if fault != nil {
		for _, r := range reqs {
			if err := fault(r); err != nil {
				return nil, err
			}
		}
	}

	scale := f.scale
	ostBytes := make(map[int]float64)  // virtual bytes per OST
	ostChunks := make(map[int]int)     // chunk count per OST
	ostReaders := make(map[int]int)    // distinct requests touching the OST
	nodeBytes := make(map[int]float64) // virtual bytes per node

	perReqOSTs := make([][]int, len(reqs))
	for i, r := range reqs {
		if r.Length < 0 || r.Offset < 0 {
			return nil, fmt.Errorf("pfs: invalid request %+v", r)
		}
		seen := make(map[int]bool)
		f.chunks(r, func(ost int, virtualBytes int64) {
			ostBytes[ost] += float64(virtualBytes)
			ostChunks[ost]++
			if !seen[ost] {
				seen[ost] = true
				ostReaders[ost]++
				perReqOSTs[i] = append(perReqOSTs[i], ost)
			}
		})
		nodeBytes[r.Node] += float64(r.Length) * scale
	}

	// Per-OST completion time: streaming under reader contention plus
	// per-chunk overhead.
	ostTime := make(map[int]float64, len(ostBytes))
	for ost, bytes := range ostBytes {
		contention := 1 + p.ContentionAlpha*float64(ostReaders[ost]-1)
		if p.ContentionCap > 0 && contention > p.ContentionCap {
			contention = p.ContentionCap
		}
		ostTime[ost] = bytes/p.OSTBandwidth*contention + float64(ostChunks[ost])*p.ChunkLatency
	}

	durations := make([]float64, len(reqs))
	for i, r := range reqs {
		virt := float64(r.Length) * scale
		// Client-side streaming: RPC-bound for small blocks.
		clientRate := p.ClientRateMax * virt / (virt + p.ClientHalfBlock)
		var client float64
		if r.Length > 0 {
			client = p.RequestOverhead + virt/clientRate
		}
		// Slowest OST this request depends on.
		var slowest float64
		for _, ost := range perReqOSTs[i] {
			if ostTime[ost] > slowest {
				slowest = ostTime[ost]
			}
		}
		// Node injection cap.
		var inject float64
		if p.NodeInjection > 0 {
			inject = nodeBytes[r.Node] / p.NodeInjection
		}
		durations[i] = max(client, max(slowest, inject))
	}
	return durations, nil
}

// ReadTime models a single isolated read (no concurrent batch).
func (f *File) ReadTime(r Request) (float64, error) {
	d, err := f.BatchTime([]Request{r})
	if err != nil {
		return 0, err
	}
	return d[0], nil
}
