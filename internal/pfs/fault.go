package pfs

import "errors"

// ErrTransientRead marks an injected read failure that a retry may clear —
// the filesystem-level analogue of a dropped RPC or a brief OST hiccup.
// Readers (internal/mpiio) absorb it with bounded retry-with-backoff;
// errors not wrapping this sentinel are treated as permanent.
var ErrTransientRead = errors.New("pfs: transient read error")

// ReadFault is a hook's verdict for one data-path read. Err, when non-nil,
// fails the read outright (wrap ErrTransientRead to make it retryable).
// Short, when positive and smaller than the request, truncates the read to
// that many bytes — a short read the caller must continue past.
type ReadFault struct {
	Err   error
	Short int
}

// ReadFaultHook inspects one data-path read: the file name, byte offset,
// request length, and the stripe index the read starts in. It is called
// from every rank's goroutine and must be safe for concurrent use and
// deterministic in its arguments.
type ReadFaultHook func(file string, off int64, n, stripe int) ReadFault

// InjectReadFault installs a hook consulted on every File.ReadAt data-path
// read (distinct from InjectFault, which guards the timing model). Pass nil
// to clear. The disabled path costs one atomic load per read.
//
//vet:allow deadcode — fault hook: installed by the chaos and fault-injection tests; the program never installs one
func (fs *FS) InjectReadFault(hook ReadFaultHook) {
	if hook == nil {
		fs.readFault.Store(nil)
		return
	}
	fs.readFault.Store(&hook)
}

// stripeIndex returns the index of the stripe containing real offset off,
// in virtual coordinates (matching the layout the timing model uses).
func (f *File) stripeIndex(off int64) int {
	return int(f.virt(off) / f.stripeSize)
}
