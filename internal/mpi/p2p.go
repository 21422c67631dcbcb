package mpi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/simtime"
)

// Status reports the outcome of a receive or probe, mirroring MPI_Status.
type Status struct {
	Source int
	Tag    int
	// Count is the message payload size in bytes.
	Count int
}

// Send transmits buf to rank dst with the given tag. Messages up to the
// eager limit are buffered and Send returns immediately (in virtual time it
// pays only the injection overhead); larger messages use the rendezvous
// protocol and block until the matching Recv has copied the data, exactly
// the semantics that make unordered blocking sends deadlock-prone in MPI.
func (c *Comm) Send(buf []byte, dst, tag int) error {
	if dst < 0 || dst >= c.world.n {
		return fmt.Errorf("%w: send to %d of %d", ErrRank, dst, c.world.n)
	}
	d := c.faultPoint(OpSend, dst, tag)
	c.bytesSent += int64(len(buf))
	c.msgsSent++
	if d.Action == FaultDrop {
		// A lost message: the sender pays its injection overhead and moves
		// on none the wiser; nothing reaches the mailbox.
		c.clock.Advance(c.sendOverhead(dst))
		return nil
	}
	payload := buf
	var extra float64
	switch d.Action {
	case FaultCorrupt:
		payload = corruptCopy(buf, d.Bit)
	case FaultDelay:
		extra = d.Delay
	}
	if len(buf) <= eagerLimit {
		// Sender pays only the injection overhead for eager messages; the
		// payload arrives one transfer time after that. The private copy is
		// staged in the receiving mailbox's slab — no per-message buffer.
		c.clock.Advance(c.sendOverhead(dst))
		arrival := c.clock.Now() + extra + c.world.cfg.MsgTime(c.rank, dst, len(buf))
		c.world.boxes[dst].enqueueCopy(payload, c.rank, tag, arrival)
		return nil
	}
	done := make(chan float64, 1)
	m := &message{
		src: c.rank, tag: tag, data: payload,
		arrival: c.clock.Now() + extra,
		done:    done,
	}
	box := c.world.boxes[dst]
	box.enqueue(m)
	bop := c.setBlocked(OpSend, dst, tag, "")
	defer c.clearBlocked()
	timer := time.NewTimer(c.world.timeout) //vet:allow wallclock — rendezvous watchdog timeout: detects real-time hangs, never feeds the virtual clock
	defer timer.Stop()
	select {
	case end := <-done:
		c.clock.AdvanceTo(end)
		return nil
	case <-c.world.abortCh:
		// The receiver may still be about to match the message; withdraw it
		// so nobody reads a buffer the caller is free to reuse.
		if !box.remove(m) {
			// Already matched: wait for the receiver to finish the copy.
			<-done
		}
		return ErrAborted
	case <-timer.C:
		if !box.remove(m) {
			end := <-done
			c.clock.AdvanceTo(end)
			return nil
		}
		return c.deadlockError(*bop)
	}
}

// sendOverhead is the sender-side injection overhead toward dst.
func (c *Comm) sendOverhead(dst int) float64 {
	if c.world.cfg.SameNode(c.rank, dst) {
		return c.world.cfg.IntraLatency
	}
	return c.world.cfg.InterLatency
}

// isend transmits buf without ever blocking, regardless of size (a private
// buffered send used by collective algorithms, as real MPI implementations
// use nonblocking internals). The payload is copied into the receiving
// mailbox's staging slab.
func (c *Comm) isend(buf []byte, dst, tag int) {
	c.isendDecided(buf, dst, tag, c.faultPoint(OpSend, dst, tag))
}

// isendDecided is isend with the fault decision already made — SendRecv
// charges its fault point to OpSendRecv and routes the verdict here for
// eager-sized payloads.
func (c *Comm) isendDecided(buf []byte, dst, tag int, d FaultDecision) {
	c.bytesSent += int64(len(buf))
	c.msgsSent++
	c.clock.Advance(c.sendOverhead(dst))
	if d.Action == FaultDrop {
		return
	}
	payload := buf
	var extra float64
	switch d.Action {
	case FaultCorrupt:
		payload = corruptCopy(buf, d.Bit)
	case FaultDelay:
		extra = d.Delay
	}
	arrival := c.clock.Now() + extra + c.world.cfg.MsgTime(c.rank, dst, len(buf))
	c.world.boxes[dst].enqueueCopy(payload, c.rank, tag, arrival)
}

// Recv blocks until a message matching src/tag (AnySource/AnyTag wildcards
// allowed) arrives, copies its payload into buf, and returns the status.
// A message longer than buf fails with ErrTruncate.
func (c *Comm) Recv(buf []byte, src, tag int) (Status, error) {
	if src != AnySource && (src < 0 || src >= c.world.n) {
		return Status{}, fmt.Errorf("%w: recv from %d of %d", ErrRank, src, c.world.n)
	}
	c.faultPoint(OpRecv, src, tag) // receives only crash; other verdicts are send-side
	box := c.world.boxes[c.rank]
	bop := c.setBlocked(OpRecv, src, tag, "")
	defer c.clearBlocked()
	m, err := box.await(c.world, src, tag, false)
	if err != nil {
		if errors.Is(err, ErrDeadlock) {
			err = c.deadlockError(*bop)
		}
		return Status{}, err
	}
	st := Status{Source: m.src, Tag: m.tag, Count: len(m.data)}
	if st.Count > len(buf) {
		if m.done != nil {
			m.done <- c.clock.Now() // release the blocked sender regardless
		}
		m.consumed(box)
		return st, fmt.Errorf("%w: got %d bytes, buffer holds %d", ErrTruncate, st.Count, len(buf))
	}
	copy(buf, m.data)
	m.consumed(box) // payload copied out; its slab chunk is dead
	if m.done != nil {
		// Rendezvous: the transfer starts when both sides are ready.
		start := simtime.Max(m.arrival, c.clock.Now())
		end := start + c.world.cfg.MsgTime(m.src, c.rank, st.Count)
		c.clock.AdvanceTo(end)
		m.done <- end
	} else {
		// Eager: payload was already on its way; wait for its arrival.
		c.clock.AdvanceTo(m.arrival)
	}
	return st, nil
}

// Probe blocks until a matching message is available without consuming it,
// so the caller can size a receive buffer first (MPI_Probe + MPI_Get_count,
// the pattern the paper describes for unknown-size geometry fragments).
func (c *Comm) Probe(src, tag int) (Status, error) {
	if src != AnySource && (src < 0 || src >= c.world.n) {
		return Status{}, fmt.Errorf("%w: probe from %d of %d", ErrRank, src, c.world.n)
	}
	c.faultPoint(OpProbe, src, tag)
	bop := c.setBlocked(OpProbe, src, tag, "")
	defer c.clearBlocked()
	m, err := c.world.boxes[c.rank].await(c.world, src, tag, true)
	if err != nil {
		if errors.Is(err, ErrDeadlock) {
			err = c.deadlockError(*bop)
		}
		return Status{}, err
	}
	return Status{Source: m.src, Tag: m.tag, Count: len(m.data)}, nil
}

// SendRecv performs a combined send and receive that cannot deadlock, like
// MPI_Sendrecv. Eager-sized payloads use a buffered send; rendezvous-sized
// payloads are posted nonblocking before the receive runs and harvested
// after it, so two ranks exchanging large buffers head-to-head always make
// progress without the library buffering a jumbo copy.
func (c *Comm) SendRecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	if dst < 0 || dst >= c.world.n {
		return Status{}, fmt.Errorf("%w: sendrecv to %d of %d", ErrRank, dst, c.world.n)
	}
	d := c.faultPoint(OpSendRecv, dst, sendTag)
	if len(sendBuf) <= eagerLimit {
		c.isendDecided(sendBuf, dst, sendTag, d)
		return c.Recv(recvBuf, src, recvTag)
	}
	c.bytesSent += int64(len(sendBuf))
	c.msgsSent++
	var (
		m      *message
		done   chan float64
		posted bool
	)
	box := c.world.boxes[dst]
	if d.Action == FaultDrop {
		c.clock.Advance(c.sendOverhead(dst))
	} else {
		payload := sendBuf
		var extra float64
		if d.Action == FaultCorrupt {
			payload = corruptCopy(sendBuf, d.Bit)
		} else if d.Action == FaultDelay {
			extra = d.Delay
		}
		done = make(chan float64, 1)
		m = &message{
			src: c.rank, tag: sendTag, data: payload,
			arrival: c.clock.Now() + extra,
			done:    done,
		}
		box.enqueue(m)
		posted = true
	}
	st, rerr := c.Recv(recvBuf, src, recvTag)
	if !posted {
		return st, rerr
	}
	if rerr != nil {
		// Withdraw the pending send so nobody matches a buffer the caller is
		// about to reuse; if it was already matched, wait out the copy.
		if !box.remove(m) {
			<-done
		}
		return st, rerr
	}
	// Harvest the posted send.
	bop := c.setBlocked(OpSendRecv, dst, sendTag, "")
	defer c.clearBlocked()
	timer := time.NewTimer(c.world.timeout) //vet:allow wallclock — rendezvous watchdog timeout: detects real-time hangs, never feeds the virtual clock
	defer timer.Stop()
	select {
	case end := <-done:
		c.clock.AdvanceTo(end)
		return st, nil
	case <-c.world.abortCh:
		if !box.remove(m) {
			<-done
		}
		return st, ErrAborted
	case <-timer.C:
		if !box.remove(m) {
			end := <-done
			c.clock.AdvanceTo(end)
			return st, nil
		}
		return st, c.deadlockError(*bop)
	}
}
