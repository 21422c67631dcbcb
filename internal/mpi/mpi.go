// Package mpi is the message-passing substrate of the reproduction — the
// stand-in for the MPI library (Open MPI / MPICH) the paper builds on. It
// runs an SPMD program with one goroutine per rank and provides the MPI
// feature set MPI-Vector-IO uses: blocking point-to-point with tag/source
// matching and eager/rendezvous protocols, Probe, the collective set
// (Barrier, Bcast, Allgather(v), Alltoallv, Reduce, Allreduce, Scan),
// derived datatypes, and user-defined reduction operators (MPI_Op_create).
//
// Collectives are implemented on top of point-to-point with the textbook
// algorithms (binomial trees, dissemination barrier, pairwise exchange,
// Hillis-Steele scan), so the virtual-time cost of a collective emerges from
// the messages it actually sends rather than from a closed-form guess.
//
// Every rank carries a virtual clock (see internal/simtime): real bytes move
// in real buffers, while reported durations come from the alpha-beta network
// model of the cluster configuration.
package mpi

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/simtime"
)

// Wildcards for Recv/Probe source and tag matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// eagerLimit is the message size (bytes) up to which sends complete without
// waiting for the matching receive. Larger messages use the rendezvous
// protocol and block until matched, as real MPI implementations do — this is
// what makes the deadlock-avoidance structure of the paper's Algorithm 1
// (even/odd send-receive ordering) observable.
const eagerLimit = 4096

// defaultOpTimeout bounds how long a blocking operation may wait before the
// runtime declares the program deadlocked.
const defaultOpTimeout = 60 * time.Second

// World is one SPMD execution context: the set of ranks, their mailboxes,
// and the shared cost-model configuration.
type World struct {
	cfg     *cluster.Config
	n       int
	boxes   []*mailbox
	syncHub *syncHub

	timeout time.Duration
	fault   FaultInjector

	// blocked[r] is what rank r is currently blocked on (nil when it is
	// running). Written only by rank r; read by any rank assembling a
	// deadlock or crash diagnostic.
	blocked []atomic.Pointer[BlockedOp]

	abortOnce sync.Once
	abortCh   chan struct{}
	abortErr  error
	abortMu   sync.Mutex

	// opByteCost charges CPU time for applying a reduction operator,
	// seconds per byte combined.
	opByteCost float64
}

// Options tunes a World. The zero value gives defaults.
type Options struct {
	// Timeout overrides the per-operation deadlock watchdog (default 60s).
	Timeout time.Duration
	// OpByteCost overrides the modeled cost of combining one byte in a
	// reduction (default 0.25 ns/byte).
	OpByteCost float64
	// Fault installs a fault injector consulted at every communicator
	// operation (see FaultInjector). Nil — the default — disables
	// injection; the hook then costs one nil check per operation.
	Fault FaultInjector
}

// Run launches fn on cfg.Size() ranks and waits for all of them. The first
// error (or panic, converted to an error) aborts the world: blocked ranks
// are released with ErrAborted so Run always returns.
func Run(cfg *cluster.Config, fn func(c *Comm) error) error {
	return RunOpt(cfg, Options{}, fn)
}

// RunOpt is Run with explicit options.
func RunOpt(cfg *cluster.Config, opt Options, fn func(c *Comm) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := cfg.Size()
	w := &World{
		cfg:        cfg,
		n:          n,
		boxes:      make([]*mailbox, n),
		syncHub:    newSyncHub(n),
		timeout:    defaultOpTimeout,
		fault:      opt.Fault,
		blocked:    make([]atomic.Pointer[BlockedOp], n),
		abortCh:    make(chan struct{}),
		opByteCost: 0.25e-9,
	}
	if opt.Timeout > 0 {
		w.timeout = opt.Timeout
	}
	if opt.OpByteCost > 0 {
		w.opByteCost = opt.OpByteCost
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}

	// The ticker periodically wakes blocked ranks so they can observe
	// deadlines and aborts.
	stopTick := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		//vet:allow wallclock — deadlock-watchdog waker: polls real time so blocked ranks observe deadlines/aborts; charges no virtual time
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				for _, b := range w.boxes {
					b.wakeAll()
				}
				w.syncHub.wakeAll()
			case <-stopTick:
				return
			}
		}
	}()

	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if cp, ok := p.(crashPanic); ok {
						err := &CrashError{Rank: rank, OpIndex: cp.op.Index, Op: cp.op.Kind, Blocked: w.snapshotBlocked()}
						errs[rank] = err
						w.abort(err)
						return
					}
					err := fmt.Errorf("mpi: rank %d panicked: %v\n%s", rank, p, debug.Stack())
					errs[rank] = err
					w.abort(err)
				}
			}()
			c := &Comm{world: w, rank: rank}
			if err := fn(c); err != nil {
				errs[rank] = err
				w.abort(fmt.Errorf("mpi: rank %d: %w", rank, err))
			}
		}(r)
	}
	wg.Wait()
	close(stopTick)
	tickWG.Wait()

	w.abortMu.Lock()
	aerr := w.abortErr
	w.abortMu.Unlock()
	if aerr != nil {
		return aerr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// abort releases every blocked rank with an error. Only the first call wins.
func (w *World) abort(err error) {
	w.abortOnce.Do(func() {
		w.abortMu.Lock()
		w.abortErr = err
		w.abortMu.Unlock()
		close(w.abortCh)
		for _, b := range w.boxes {
			b.wakeAll()
		}
		w.syncHub.wakeAll()
	})
}

func (w *World) aborted() bool {
	select {
	case <-w.abortCh:
		return true
	default:
		return false
	}
}

// snapshotBlocked collects what every currently blocked rank is waiting on,
// in rank order. Racy by nature — ranks keep moving while the snapshot is
// taken — but each entry is a consistent *BlockedOp published by its own
// rank, which is all a diagnostic needs.
func (w *World) snapshotBlocked() []BlockedOp {
	var out []BlockedOp
	for r := range w.blocked {
		if b := w.blocked[r].Load(); b != nil {
			out = append(out, *b)
		}
	}
	return out
}

// Comm is one rank's handle on the world — the equivalent of
// MPI_COMM_WORLD from that rank's point of view. A Comm is owned by its
// rank's goroutine and must not be shared.
type Comm struct {
	world *World
	rank  int
	clock simtime.Clock

	// opIndex counts communicator operations on this rank, advanced only
	// while a fault injector is installed (see faultPoint).
	opIndex int

	// stats
	bytesSent int64
	msgsSent  int64
}

// setBlocked publishes what this rank is about to block on and returns the
// entry so the caller can fold it into a DeadlockError on watchdog expiry.
func (c *Comm) setBlocked(kind OpKind, peer, tag int, key string) *BlockedOp {
	b := &BlockedOp{Rank: c.rank, Op: kind, Peer: peer, Tag: tag, Key: key, VTime: c.clock.Now()}
	c.world.blocked[c.rank].Store(b)
	return b
}

// clearBlocked marks this rank as running again.
func (c *Comm) clearBlocked() { c.world.blocked[c.rank].Store(nil) }

// deadlockError builds the diagnostic form of ErrDeadlock for an operation
// that hit the watchdog: the failing operation plus a snapshot of every
// blocked rank, taken while this rank's own entry is still published.
func (c *Comm) deadlockError(op BlockedOp) error {
	return &DeadlockError{Op: op, Blocked: c.world.snapshotBlocked()}
}

// Rank returns this process's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.world.n }

// Config returns the cluster description backing the cost model.
func (c *Comm) Config() *cluster.Config { return c.world.cfg }

// Now returns this rank's current virtual time in seconds.
func (c *Comm) Now() float64 { return c.clock.Now() }

// Compute charges d seconds of modeled CPU time to this rank.
func (c *Comm) Compute(d float64) { c.clock.Advance(d) }

// AdvanceTo moves this rank's clock to at least t.
func (c *Comm) AdvanceTo(t float64) { c.clock.AdvanceTo(t) }

// BytesSent returns the total payload bytes this rank has sent.
func (c *Comm) BytesSent() int64 { return c.bytesSent }

// MsgsSent returns the number of point-to-point messages this rank has sent
// (collectives included, since they are built on point-to-point).
func (c *Comm) MsgsSent() int64 { return c.msgsSent }
