// Package fault builds seeded, fully deterministic fault plans for the
// pipeline's injection hooks. A Plan is data — a seed plus a list of rules —
// and compiles with New into an Injector whose decisions depend only on the
// plan and the coordinates of each operation (rank, op index, tag; file,
// offset, stripe; phase, source, batch). Two runs of the same workload with
// the same plan inject byte-identical faults, so every chaos scenario replays.
//
// One Injector feeds all four hook points:
//
//	mpi.Options.Fault      <- the Injector itself (message drop/corrupt/
//	                          delay, rank crash at the Nth communicator op)
//	pfs.FS.InjectReadFault <- Injector.ReadFault (transient and permanent
//	                          read errors at stripe granularity, short reads)
//	core.Partitioner.FrameFault <- Injector.FrameFault(rank) (exchange-frame
//	                          corruption on the receive path)
//	sink wrappers          <- Injector.SinkFault (sink errors per batch)
//
// The hooks are nil-checked at every consultation site, so a pipeline with
// no injector installed pays nothing.
package fault

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/mpi"
	"repro/internal/pfs"
)

// ErrInjected is the sentinel wrapped by every error the injector
// manufactures (sink errors, permanent and transient read errors), so tests
// can tell injected failures from organic ones.
var ErrInjected = errors.New("fault: injected error")

// Kind selects what a Rule injects.
type Kind int

const (
	// DropMessage loses a matching message in transit (send completes,
	// nothing arrives).
	DropMessage Kind = iota
	// CorruptMessage flips one seeded bit of a matching message's payload.
	CorruptMessage
	// DelayMessage delivers a matching message Rule.Delay virtual seconds
	// late.
	DelayMessage
	// CrashRank kills the rank at its matching communicator operation.
	CrashRank
	// ReadTransient fails a matching data-path read with an error wrapping
	// pfs.ErrTransientRead (absorbed by the reader's bounded retry).
	ReadTransient
	// ReadPermanent fails every matching data-path read, retries included.
	ReadPermanent
	// ShortRead truncates a matching data-path read to Rule.Short bytes.
	ShortRead
	// SinkError fails a sink at a matching (rank, batch).
	SinkError
	// CorruptFrame flips a seeded bit in the length field of a received
	// exchange partition, guaranteeing the frame fails to decode.
	CorruptFrame
)

// String returns the rule kind name.
func (k Kind) String() string {
	switch k {
	case DropMessage:
		return "DropMessage"
	case CorruptMessage:
		return "CorruptMessage"
	case DelayMessage:
		return "DelayMessage"
	case CrashRank:
		return "CrashRank"
	case ReadTransient:
		return "ReadTransient"
	case ReadPermanent:
		return "ReadPermanent"
	case ShortRead:
		return "ShortRead"
	case SinkError:
		return "SinkError"
	case CorruptFrame:
		return "CorruptFrame"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Rule matches operations by coordinates. Integer fields use -1 as a
// wildcard and File uses "" — construct rules with the constructors below,
// which fill the wildcards, then adjust exported fields as needed.
type Rule struct {
	Kind Kind

	// Message-fault coordinates (DropMessage, CorruptMessage, DelayMessage,
	// CrashRank): the sending rank, its per-rank communicator-operation
	// index, and the message tag.
	Rank    int
	OpIndex int
	Tag     int

	// Read-fault coordinates (ReadTransient, ReadPermanent, ShortRead):
	// file name and the stripe index the read starts in.
	File   string
	Stripe int

	// Frame-fault coordinates (CorruptFrame): Rank above is the receiving
	// rank; Phase the exchange phase; Src the sending rank.
	Phase int
	Src   int

	// Sink-fault coordinates (SinkError): Rank above plus the batch number.
	Batch int

	// Times bounds how often the rule fires per scope (per rank for message,
	// frame, and sink rules; per (file, offset) for read rules). Zero means
	// once. ReadPermanent ignores it and always fires.
	Times int

	// Delay is the extra virtual seconds for DelayMessage.
	Delay float64

	// Short is the truncated byte count for ShortRead.
	Short int
}

// wildcard returns a rule of the given kind with every selector open.
func wildcard(k Kind) Rule {
	return Rule{Kind: k, Rank: -1, OpIndex: -1, Tag: -1, Stripe: -1, Phase: -1, Src: -1, Batch: -1}
}

// DropAt loses the message rank sends at communicator-op index opIndex.
func DropAt(rank, opIndex int) Rule {
	r := wildcard(DropMessage)
	r.Rank, r.OpIndex = rank, opIndex
	return r
}

// DropTag loses the first message rank sends with the given tag.
func DropTag(rank, tag int) Rule {
	r := wildcard(DropMessage)
	r.Rank, r.Tag = rank, tag
	return r
}

// CorruptTag flips a seeded bit in the first message rank sends with the
// given tag.
func CorruptTag(rank, tag int) Rule {
	r := wildcard(CorruptMessage)
	r.Rank, r.Tag = rank, tag
	return r
}

// DelayTag delivers the first message rank sends with the given tag delay
// virtual seconds late.
func DelayTag(rank, tag int, delay float64) Rule {
	r := wildcard(DelayMessage)
	r.Rank, r.Tag, r.Delay = rank, tag, delay
	return r
}

// CrashAt kills rank at its opIndex-th communicator operation.
func CrashAt(rank, opIndex int) Rule {
	r := wildcard(CrashRank)
	r.Rank, r.OpIndex = rank, opIndex
	return r
}

// TransientRead fails reads of file starting in stripe (-1 for any) with a
// retryable error, times times per read offset.
func TransientRead(file string, stripe, times int) Rule {
	r := wildcard(ReadTransient)
	r.File, r.Stripe, r.Times = file, stripe, times
	return r
}

// PermanentRead fails every read of file starting in stripe (-1 for any).
func PermanentRead(file string, stripe int) Rule {
	r := wildcard(ReadPermanent)
	r.File, r.Stripe = file, stripe
	return r
}

// ShortReadAt truncates the first read of file starting in stripe (-1 for
// any) to short bytes.
func ShortReadAt(file string, stripe, short int) Rule {
	r := wildcard(ShortRead)
	r.File, r.Stripe, r.Short = file, stripe, short
	return r
}

// SinkErrAt fails the sink on rank at the given batch (-1 for any batch).
func SinkErrAt(rank, batch int) Rule {
	r := wildcard(SinkError)
	r.Rank, r.Batch = rank, batch
	return r
}

// FrameCorrupt corrupts the exchange partition rank receives from src (-1
// for any) in phase (-1 for any).
func FrameCorrupt(rank, phase, src int) Rule {
	r := wildcard(CorruptFrame)
	r.Rank, r.Phase, r.Src = rank, phase, src
	return r
}

// Plan is a deterministic fault schedule: a seed (feeding bit selection for
// corruption) plus the rules. The zero plan injects nothing.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// New compiles the plan into an injector. Each call returns a fresh
// injector with zeroed fire counters, so a retried run replays the plan
// from the beginning.
//
//vet:allow deadcode — the fault-injection entry point the facade documents (vectorio.FaultPlan.New); the chaos tests compile every plan through it
func (p Plan) New() *Injector {
	return &Injector{
		seed:  uint64(p.Seed),
		rules: append([]Rule(nil), p.Rules...),
		fired: make(map[fireKey]int),
	}
}

// fireKey scopes a rule's fire budget: per (rule, rank) for message, frame,
// and sink rules; per (rule, file, offset) for read rules, so each rank's
// independent reads see their own deterministic fault sequence.
type fireKey struct {
	rule int
	rank int
	file string
	off  int64
}

// Injector is a compiled Plan. It implements mpi.FaultInjector directly and
// exposes ReadFault, FrameFault, and SinkFault for the other hook points.
// All methods are safe for concurrent use from every rank's goroutine.
type Injector struct {
	seed  uint64
	rules []Rule

	mu    sync.Mutex
	fired map[fireKey]int
}

// take consumes one firing of rule i under key k, returning false when the
// rule's budget (Times, default 1) is spent.
func (in *Injector) take(i int, k fireKey) bool {
	budget := in.rules[i].Times
	if budget <= 0 {
		budget = 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fired[k] >= budget {
		return false
	}
	in.fired[k]++
	return true
}

// Decide implements mpi.FaultInjector: message rules match send-side
// operations (Send, SendRecv, and the buffered sends inside collectives);
// CrashRank matches any operation kind at the rank's OpIndex-th op.
func (in *Injector) Decide(op mpi.FaultOp) mpi.FaultDecision {
	for i, r := range in.rules {
		switch r.Kind {
		case CrashRank:
			if (r.Rank < 0 || r.Rank == op.Rank) && (r.OpIndex < 0 || r.OpIndex == op.Index) {
				if in.take(i, fireKey{rule: i, rank: op.Rank}) {
					return mpi.FaultDecision{Action: mpi.FaultCrash}
				}
			}
		case DropMessage, CorruptMessage, DelayMessage:
			if op.Kind != mpi.OpSend && op.Kind != mpi.OpSendRecv {
				continue
			}
			if r.Rank >= 0 && r.Rank != op.Rank {
				continue
			}
			if r.OpIndex >= 0 && r.OpIndex != op.Index {
				continue
			}
			if r.Tag >= 0 && r.Tag != op.Tag {
				continue
			}
			if !in.take(i, fireKey{rule: i, rank: op.Rank}) {
				continue
			}
			switch r.Kind {
			case DropMessage:
				return mpi.FaultDecision{Action: mpi.FaultDrop}
			case CorruptMessage:
				bit := splitmix64(in.seed ^ mix(op.Rank, op.Index, op.Tag))
				return mpi.FaultDecision{Action: mpi.FaultCorrupt, Bit: bit}
			default:
				return mpi.FaultDecision{Action: mpi.FaultDelay, Delay: r.Delay}
			}
		}
	}
	return mpi.FaultDecision{}
}

// ReadFault is the pfs data-path hook (pass to pfs.FS.InjectReadFault).
//
//vet:allow deadcode — fault hook: the chaos tests install it with pfs.FS.InjectReadFault
func (in *Injector) ReadFault(file string, off int64, n, stripe int) pfs.ReadFault {
	for i, r := range in.rules {
		switch r.Kind {
		case ReadTransient, ReadPermanent, ShortRead:
		default:
			continue
		}
		if r.File != "" && r.File != file {
			continue
		}
		if r.Stripe >= 0 && r.Stripe != stripe {
			continue
		}
		switch r.Kind {
		case ReadPermanent:
			return pfs.ReadFault{Err: fmt.Errorf("%w: permanent read failure at %q offset %d (stripe %d)",
				ErrInjected, file, off, stripe)}
		case ReadTransient:
			if in.take(i, fireKey{rule: i, file: file, off: off}) {
				return pfs.ReadFault{Err: fmt.Errorf("%w: transient read failure at %q offset %d (stripe %d): %w",
					ErrInjected, file, off, stripe, pfs.ErrTransientRead)}
			}
		case ShortRead:
			if r.Short > 0 && r.Short < n && in.take(i, fireKey{rule: i, file: file, off: off}) {
				return pfs.ReadFault{Short: r.Short}
			}
		}
	}
	return pfs.ReadFault{}
}

// FrameFault returns the exchange-partition hook for one receiving rank
// (pass to core's Partitioner.FrameFault). The hook flips a seeded bit in
// the length field of the partition's first frame — bits 32-63 of the
// header — which the frame decoder is guaranteed to reject.
func (in *Injector) FrameFault(rank int) func(phase, src int, part []byte) {
	return func(phase, src int, part []byte) {
		if len(part) < 8 {
			return
		}
		for i, r := range in.rules {
			if r.Kind != CorruptFrame {
				continue
			}
			if r.Rank >= 0 && r.Rank != rank {
				continue
			}
			if r.Phase >= 0 && r.Phase != phase {
				continue
			}
			if r.Src >= 0 && r.Src != src {
				continue
			}
			if !in.take(i, fireKey{rule: i, rank: rank}) {
				continue
			}
			bit := 32 + splitmix64(in.seed^mix(rank, phase, src))%32
			part[bit/8] ^= 1 << (bit % 8)
			return
		}
	}
}

// SinkFault decides whether the sink on rank fails at the given batch (wire
// into the pipeline's sink wrapper).
//
//vet:allow deadcode — fault hook: the chaos tests wire it into their sink wrapper
func (in *Injector) SinkFault(rank, batch int) error {
	for i, r := range in.rules {
		if r.Kind != SinkError {
			continue
		}
		if r.Rank >= 0 && r.Rank != rank {
			continue
		}
		if r.Batch >= 0 && r.Batch != batch {
			continue
		}
		if !in.take(i, fireKey{rule: i, rank: rank}) {
			continue
		}
		return fmt.Errorf("%w: sink failure at rank %d batch %d", ErrInjected, rank, batch)
	}
	return nil
}

// mix folds three small coordinates into one word for seeding.
func mix(a, b, c int) uint64 {
	return uint64(a)*0x1000003 + uint64(b)*0x10001 + uint64(c)
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash for
// deterministic bit selection.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
