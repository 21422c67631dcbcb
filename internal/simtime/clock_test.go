package simtime

import (
	"math"
	"testing"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock = %v", c.Now())
	}
	c.Advance(1.5)
	c.Advance(0.25)
	if c.Now() != 1.75 {
		t.Errorf("Now = %v, want 1.75", c.Now())
	}
	c.Advance(0) // zero is allowed
	if c.Now() != 1.75 {
		t.Errorf("zero advance moved clock to %v", c.Now())
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance(5)
	c.AdvanceTo(3) // backwards: no-op
	if c.Now() != 5 {
		t.Errorf("AdvanceTo moved backwards: %v", c.Now())
	}
	c.AdvanceTo(8)
	if c.Now() != 8 {
		t.Errorf("AdvanceTo(8) = %v", c.Now())
	}
}

func TestClockPanicsOnBadDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Advance should panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestClockPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NaN Advance should panic")
		}
	}()
	var c Clock
	c.Advance(math.NaN())
}

func TestMax(t *testing.T) {
	if got := Max(1, 5, 3); got != 5 {
		t.Errorf("Max = %v", got)
	}
	if got := Max(-2); got != -2 {
		t.Errorf("Max single = %v", got)
	}
	if got := Max(); !math.IsInf(got, -1) {
		t.Errorf("Max() = %v, want -Inf", got)
	}
}
