// Package pfs simulates the parallel filesystems of the paper's evaluation:
// Lustre (COMET, §5.1.1), GPFS (ROGER, §5.1.2) and NFS (the Figure 10 side
// experiment). Files hold real bytes — reads return actual data that the
// upper layers really parse — while read *durations* come from an analytic
// contention model over the striped layout:
//
//   - a file is striped round-robin over stripeCount object storage targets
//     (OSTs) in stripeSize chunks (on GPFS the layout is fixed by the
//     filesystem; on Lustre it is per-file, the `lfs setstripe` knobs);
//   - each OST streams at OSTBandwidth, degraded by a contention factor as
//     more concurrent readers hit it, plus a per-chunk seek/RPC overhead;
//   - each client process sustains at most a block-size dependent rate
//     (small reads are dominated by RPC round trips);
//   - each compute node is capped by its injection bandwidth.
//
// A batch of concurrent requests (one I/O iteration of all ranks) completes
// in the maximum of these terms, evaluated per request so that imbalanced
// requests produce imbalanced completion times.
//
// Because the reproduction runs on scaled-down datasets, every file carries
// a Scale factor: model time treats each real byte as Scale virtual bytes,
// so reported seconds and GB/s are directly comparable to the paper's
// full-size numbers (DESIGN.md §2).
package pfs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind labels the filesystem flavor.
type Kind int

const (
	// Lustre exposes user-controlled striping (stripe count and size).
	Lustre Kind = iota
	// GPFS distributes fixed-size blocks over all disks; striping is not
	// user controllable (the paper used the default configuration).
	GPFS
	// NFS serves everything through a single server.
	NFS
)

// String returns the filesystem kind name.
func (k Kind) String() string {
	switch k {
	case Lustre:
		return "Lustre"
	case GPFS:
		return "GPFS"
	case NFS:
		return "NFS"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params holds the cost-model constants of a filesystem. Bandwidths are
// bytes/second (of virtual, full-scale bytes), latencies are seconds.
type Params struct {
	Kind Kind
	Name string

	// OSTs is the number of storage targets available (96 on COMET's
	// Lustre). For GPFS/NFS it is the fixed internal distribution width.
	OSTs int
	// OSTBandwidth is the per-OST streaming rate.
	OSTBandwidth float64
	// ContentionAlpha degrades an OST's effective rate by
	// 1 + alpha*(readers-1) when several requests hit it concurrently.
	ContentionAlpha float64
	// ContentionCap bounds the contention factor: request-queue mixing
	// overhead saturates rather than growing without bound at very high
	// reader counts. Zero means uncapped.
	ContentionCap float64
	// ChunkLatency is the per-stripe-chunk seek/RPC overhead at the OST.
	ChunkLatency float64

	// ClientRateMax is a single process's peak streaming rate, and
	// ClientHalfBlock the block size at which half of it is achieved:
	// rate(s) = ClientRateMax * s / (s + ClientHalfBlock).
	ClientRateMax   float64
	ClientHalfBlock float64
	// RequestOverhead is the fixed client-side cost per read call.
	RequestOverhead float64

	// NodeInjection caps a compute node's aggregate transfer rate to the
	// filesystem. Zero means uncapped.
	NodeInjection float64

	// DefaultStripeCount and DefaultStripeSize apply when a file is
	// created without explicit striping (GPFS/NFS ignore user striping).
	DefaultStripeCount int
	DefaultStripeSize  int64
}

// CometLustre returns the Lustre model for the COMET cluster: 96 OSTs on a
// ~100 GB/s storage fabric, FDR-connected clients. Constants are calibrated
// so the Figure 8 sweep peaks near the paper's 22 GB/s.
func CometLustre() Params {
	return Params{
		Kind:               Lustre,
		Name:               "COMET-Lustre",
		OSTs:               96,
		OSTBandwidth:       500e6,
		ContentionAlpha:    0.03,
		ContentionCap:      4,
		ChunkLatency:       0.5e-3,
		ClientRateMax:      160e6,
		ClientHalfBlock:    32e6,
		RequestOverhead:    1.5e-3,
		NodeInjection:      7e9,
		DefaultStripeCount: 1,
		DefaultStripeSize:  1 << 20,
	}
}

// RogerGPFS returns the GPFS model for the ROGER cluster: block-distributed
// storage behind 10 Gb/s node uplinks; the paper's Figure 14 scaling
// saturates around 80 processes (4 nodes).
func RogerGPFS() Params {
	return Params{
		Kind:               GPFS,
		Name:               "ROGER-GPFS",
		OSTs:               32,
		OSTBandwidth:       400e6,
		ContentionAlpha:    0.06,
		ContentionCap:      3,
		ChunkLatency:       1e-3,
		ClientRateMax:      300e6,
		ClientHalfBlock:    4e6,
		RequestOverhead:    2e-3,
		NodeInjection:      1.25e9,
		DefaultStripeCount: 32,
		DefaultStripeSize:  8 << 20,
	}
}

// BasicNFS returns a single-server NFS model used by the paper's Figure 10
// cross-check.
func BasicNFS() Params {
	return Params{
		Kind:               NFS,
		Name:               "NFS",
		OSTs:               1,
		OSTBandwidth:       600e6,
		ContentionAlpha:    0.15,
		ContentionCap:      8,
		ChunkLatency:       0.3e-3,
		ClientRateMax:      400e6,
		ClientHalfBlock:    4e6,
		RequestOverhead:    0.5e-3,
		NodeInjection:      1.25e9,
		DefaultStripeCount: 1,
		DefaultStripeSize:  1 << 20,
	}
}

// FS is one mounted filesystem instance holding named files.
type FS struct {
	params Params

	mu    sync.Mutex
	fault func(Request) error

	// readFault guards the data path (File.ReadAt); see InjectReadFault.
	readFault atomic.Pointer[ReadFaultHook]
}

// New mounts a filesystem with the given parameters.
func New(params Params) (*FS, error) {
	if params.OSTs <= 0 || params.OSTBandwidth <= 0 || params.ClientRateMax <= 0 {
		return nil, fmt.Errorf("pfs: invalid parameters for %q", params.Name)
	}
	return &FS{params: params}, nil
}

// Params returns the filesystem's cost-model constants.
func (fs *FS) Params() Params { return fs.params }

// InjectFault installs a hook consulted on every modeled read; a non-nil
// return fails that read. Used by failure-injection tests. Pass nil to
// clear.
//
//vet:allow deadcode — fault hook: installed by the pfs fault-injection tests; the program never installs one
func (fs *FS) InjectFault(hook func(Request) error) {
	fs.mu.Lock()
	fs.fault = hook
	fs.mu.Unlock()
}

// Create makes an empty file with explicit striping. stripeSize is
// in virtual (full-scale) bytes — identical to real bytes until SetScale
// declares otherwise. On GPFS and NFS user striping is ignored, as on the
// real systems.
func (fs *FS) Create(name string, stripeCount int, stripeSize int64) (*File, error) {
	p := fs.params
	if p.Kind != Lustre {
		stripeCount, stripeSize = p.DefaultStripeCount, p.DefaultStripeSize
	}
	if stripeCount <= 0 {
		stripeCount = p.DefaultStripeCount
	}
	if stripeCount > p.OSTs {
		return nil, fmt.Errorf("pfs: stripe count %d exceeds %d OSTs", stripeCount, p.OSTs)
	}
	if stripeSize <= 0 {
		stripeSize = p.DefaultStripeSize
	}
	return &File{
		fs:          fs,
		name:        name,
		stripeCount: stripeCount,
		stripeSize:  stripeSize,
		scale:       1,
	}, nil
}
