// Package simtime provides the virtual clocks that give every simulated MPI
// rank a notion of cluster time.
//
// The reproduction runs real code (real parsing, real communication of real
// bytes, real index builds) but reports time from a deterministic cost model
// rather than from the host machine's wall clock: communication and I/O
// operations advance the participating ranks' clocks by modeled durations,
// and CPU phases advance them by calibrated per-unit costs multiplied by the
// work that was actually performed. See DESIGN.md §5 for the calibration.
package simtime

import (
	"fmt"
	"math"
)

// Clock is a per-rank virtual clock measured in seconds since the start of
// the simulated program. A Clock is owned by exactly one rank goroutine;
// cross-rank clock joins happen inside rendezvous operations which exchange
// timestamps explicitly, so Clock itself needs no locking.
type Clock struct {
	now float64
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward by d seconds. Negative or NaN durations
// panic: they always indicate a bug in a cost model.
func (c *Clock) Advance(d float64) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("simtime: invalid duration %v", d))
	}
	c.now += d
}

// AdvanceTo moves the clock forward to time t. Moving backwards is a no-op:
// a rank that was "early" to a rendezvous simply waits until t, while a rank
// that was "late" keeps its own later time.
func (c *Clock) AdvanceTo(t float64) {
	if t > c.now {
		c.now = t
	}
}

// Max returns the maximum of a set of timestamps. It is the join operation
// used by barriers and collective completions.
func Max(ts ...float64) float64 {
	m := math.Inf(-1)
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}
