package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
)

// run launches an SPMD test body on n local ranks and fails the test on any
// rank error.
func run(t *testing.T, n int, fn func(c *Comm) error) {
	t.Helper()
	if err := Run(cluster.Local(n), fn); err != nil {
		t.Fatal(err)
	}
}

func TestRankAndSize(t *testing.T) {
	seen := make([]bool, 8)
	run(t, 8, func(c *Comm) error {
		if c.Size() != 8 {
			return fmt.Errorf("size = %d", c.Size())
		}
		seen[c.Rank()] = true // distinct ranks, so no race
		return nil
	})
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestSendRecvEager(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send([]byte("hello"), 1, 7)
		}
		buf := make([]byte, 16)
		st, err := c.Recv(buf, 0, 7)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 7 || st.Count != 5 {
			return fmt.Errorf("status = %+v", st)
		}
		if string(buf[:5]) != "hello" {
			return fmt.Errorf("payload = %q", buf[:5])
		}
		if c.Now() <= 0 {
			return fmt.Errorf("virtual clock did not advance")
		}
		return nil
	})
}

func TestSendRecvRendezvous(t *testing.T) {
	big := bytes.Repeat([]byte{0xAB}, 1<<20) // 1 MB: rendezvous path
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(big, 1, 1); err != nil {
				return err
			}
			if c.Now() <= 0 {
				return fmt.Errorf("rendezvous sender clock did not advance")
			}
			return nil
		}
		buf := make([]byte, len(big))
		st, err := c.Recv(buf, 0, 1)
		if err != nil {
			return err
		}
		if st.Count != len(big) || !bytes.Equal(buf, big) {
			return fmt.Errorf("payload corrupted")
		}
		return nil
	})
}

func TestRecvWildcards(t *testing.T) {
	run(t, 3, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return c.Send([]byte{1}, 0, 42)
		case 2:
			return nil
		default:
			buf := make([]byte, 1)
			st, err := c.Recv(buf, AnySource, AnyTag)
			if err != nil {
				return err
			}
			if st.Source != 1 || st.Tag != 42 {
				return fmt.Errorf("wildcard status = %+v", st)
			}
			return nil
		}
	})
}

func TestMessageOrderingPerSourceTag(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		const k = 50
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				if err := c.Send([]byte{byte(i)}, 1, 3); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 1)
		for i := 0; i < k; i++ {
			if _, err := c.Recv(buf, 0, 3); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("message %d arrived out of order (got %d)", i, buf[0])
			}
		}
		return nil
	})
}

func TestTagSelectivity(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send([]byte{9}, 1, 9); err != nil {
				return err
			}
			return c.Send([]byte{5}, 1, 5)
		}
		buf := make([]byte, 1)
		// Receive tag 5 first even though tag 9 arrived first.
		if _, err := c.Recv(buf, 0, 5); err != nil {
			return err
		}
		if buf[0] != 5 {
			return fmt.Errorf("tag-5 recv got %d", buf[0])
		}
		if _, err := c.Recv(buf, 0, 9); err != nil {
			return err
		}
		if buf[0] != 9 {
			return fmt.Errorf("tag-9 recv got %d", buf[0])
		}
		return nil
	})
}

func TestProbeAndGetCount(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			payload := make([]byte, 24) // 3 float64
			return c.Send(payload, 1, 0)
		}
		st, err := c.Probe(0, 0)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 0 || st.Count != 3*Float64.Size() {
			return fmt.Errorf("Probe status = %+v, want 3 doubles from rank 0 tag 0", st)
		}
		// Probe must not consume: the receive still sees it.
		buf := make([]byte, st.Count)
		if _, err := c.Recv(buf, 0, 0); err != nil {
			return err
		}
		return nil
	})
}

func TestRecvTruncate(t *testing.T) {
	err := Run(cluster.Local(2), func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(make([]byte, 100), 1, 0)
		}
		_, err := c.Recv(make([]byte, 10), 0, 0)
		return err
	})
	if !errors.Is(err, ErrTruncate) {
		t.Errorf("err = %v, want ErrTruncate", err)
	}
}

func TestSendRecvCombined(t *testing.T) {
	// Ring shift with SendRecv: must not deadlock despite everyone sending.
	run(t, 5, func(c *Comm) error {
		n := c.Size()
		right := (c.Rank() + 1) % n
		left := (c.Rank() - 1 + n) % n
		out := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		st, err := c.SendRecv(out, right, 0, in, left, 0)
		if err != nil {
			return err
		}
		if st.Source != left || in[0] != byte(left) {
			return fmt.Errorf("ring shift got %d from %d", in[0], st.Source)
		}
		return nil
	})
}

func TestRankValidation(t *testing.T) {
	err := Run(cluster.Local(2), func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(nil, 99, 0)
		}
		return nil
	})
	if !errors.Is(err, ErrRank) {
		t.Errorf("err = %v, want ErrRank", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Every rank posts a blocking rendezvous send and nobody receives: the
	// classic head-to-head deadlock Algorithm 1 avoids. The watchdog must
	// fire rather than hang.
	big := make([]byte, eagerLimit+1)
	err := RunOpt(cluster.Local(2), Options{Timeout: 300 * time.Millisecond}, func(c *Comm) error {
		return c.Send(big, 1-c.Rank(), 0)
	})
	if err == nil {
		t.Fatal("head-to-head rendezvous sends should deadlock")
	}
	if !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v, want deadlock/abort", err)
	}
}

func TestEvenOddRingAvoidsDeadlock(t *testing.T) {
	// The paper's Algorithm 1 pattern: even ranks send-then-recv, odd ranks
	// recv-then-send, passing large buffers around a ring. With rendezvous
	// semantics this must complete.
	big := bytes.Repeat([]byte{7}, eagerLimit*4)
	run(t, 6, func(c *Comm) error {
		n := c.Size()
		next := (c.Rank() + 1) % n
		prev := (c.Rank() - 1 + n) % n
		buf := make([]byte, len(big))
		if c.Rank()%2 == 0 {
			if err := c.Send(big, next, 0); err != nil {
				return err
			}
			if _, err := c.Recv(buf, prev, 0); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(buf, prev, 0); err != nil {
				return err
			}
			if err := c.Send(big, next, 0); err != nil {
				return err
			}
		}
		if !bytes.Equal(buf, big) {
			return fmt.Errorf("ring payload corrupted")
		}
		return nil
	})
}

func TestPanicAbortsWorld(t *testing.T) {
	err := Run(cluster.Local(2), func(c *Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		// Rank 1 blocks forever; the abort must release it.
		_, err := c.Recv(make([]byte, 1), 0, 0)
		return err
	})
	if err == nil {
		t.Fatal("panic should surface as an error")
	}
}

func TestErrorAbortsWorld(t *testing.T) {
	sentinel := errors.New("rank failure")
	err := Run(cluster.Local(3), func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		_, err := c.Recv(make([]byte, 1), 2, 0)
		return err
	})
	if err == nil || !errors.Is(errors.Unwrap(err), sentinel) && !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want wrapped sentinel", err)
	}
}

func TestVirtualTimeOrdering(t *testing.T) {
	// A chain 0 -> 1 -> 2 must produce non-decreasing completion times.
	times := make([]float64, 3)
	run(t, 3, func(c *Comm) error {
		buf := make([]byte, 8)
		switch c.Rank() {
		case 0:
			c.Compute(1e-3)
			if err := c.Send(buf, 1, 0); err != nil {
				return err
			}
		case 1:
			if _, err := c.Recv(buf, 0, 0); err != nil {
				return err
			}
			if err := c.Send(buf, 2, 0); err != nil {
				return err
			}
		case 2:
			if _, err := c.Recv(buf, 1, 0); err != nil {
				return err
			}
		}
		times[c.Rank()] = c.Now()
		return nil
	})
	if !(times[2] > times[1] && times[1] > 1e-3) {
		t.Errorf("causality violated: times = %v", times)
	}
}

func TestIntraVsInterNodeCost(t *testing.T) {
	cfg := cluster.Comet(2) // 16 ranks/node: ranks 0,1 share a node; 0,16 don't
	var intra, inter float64
	err := Run(cfg, func(c *Comm) error {
		payload := make([]byte, 1<<20)
		buf := make([]byte, len(payload))
		switch c.Rank() {
		case 0:
			if err := c.Send(payload, 1, 0); err != nil {
				return err
			}
			return c.Send(payload, 16, 0)
		case 1:
			if _, err := c.Recv(buf, 0, 0); err != nil {
				return err
			}
			intra = c.Now()
		case 16:
			if _, err := c.Recv(buf, 0, 0); err != nil {
				return err
			}
			inter = c.Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if intra <= 0 || inter <= 0 || intra >= inter {
		t.Errorf("intra=%v inter=%v: shared-memory transfer should be faster", intra, inter)
	}
}

func TestStats(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(make([]byte, 100), 1, 0); err != nil {
				return err
			}
			if c.BytesSent() != 100 || c.MsgsSent() != 1 {
				return fmt.Errorf("stats = %d bytes / %d msgs", c.BytesSent(), c.MsgsSent())
			}
			return nil
		}
		_, err := c.Recv(make([]byte, 100), 0, 0)
		return err
	})
}

func TestWorldSync(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		// Each rank contributes its rank; everyone gets the sum.
		out, err := c.WorldSync("sum", c.Rank(), func(inputs []any) []any {
			total := 0
			for _, in := range inputs {
				total += in.(int)
			}
			outs := make([]any, len(inputs))
			for i := range outs {
				outs[i] = total
			}
			return outs
		})
		if err != nil {
			return err
		}
		if out.(int) != 6 {
			return fmt.Errorf("sync sum = %v", out)
		}
		// Round 2 on the same key must not mix with round 1.
		out, err = c.WorldSync("sum", 1, func(inputs []any) []any {
			outs := make([]any, len(inputs))
			for i := range outs {
				outs[i] = len(inputs)
			}
			return outs
		})
		if err != nil {
			return err
		}
		if out.(int) != 4 {
			return fmt.Errorf("sync round 2 = %v", out)
		}
		return nil
	})
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := cluster.Local(0)
	if err := Run(cfg, func(c *Comm) error { return nil }); err == nil {
		t.Error("Run accepted a zero-rank config")
	}
}
