package sim

import (
	"testing"
	"testing/quick"
)

// calls is the handler the kernel tests schedule through: the event with
// a1 = i runs the i-th registered function.
type calls []func()

func (c *calls) HandleEvent(code uint32, a1, a2 uint64) { (*c)[a1]() }

// at posts fn at absolute time t.
func (c *calls) at(k *Kernel, t Time, fn func()) {
	*c = append(*c, fn)
	k.Post(t, c, 0, uint64(len(*c)-1), 0)
}

func TestKernelOrdering(t *testing.T) {
	var k Kernel
	var c calls
	var got []int
	c.at(&k, 10, func() { got = append(got, 1) })
	c.at(&k, 5, func() { got = append(got, 0) })
	c.at(&k, 10, func() { got = append(got, 2) }) // same time: schedule order
	c.at(&k, 20, func() { got = append(got, 3) })
	if !k.Run(0) {
		t.Fatal("Run did not drain")
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 20 {
		t.Fatalf("Now = %d, want 20", k.Now())
	}
	if k.Events() != 4 {
		t.Fatalf("Events = %d, want 4", k.Events())
	}
}

func TestKernelAfterNesting(t *testing.T) {
	var k Kernel
	var c calls
	var times []Time
	c.at(&k, 3, func() {
		times = append(times, k.Now())
		c.at(&k, k.Now()+7, func() { times = append(times, k.Now()) })
	})
	k.Run(0)
	if len(times) != 2 || times[0] != 3 || times[1] != 10 {
		t.Fatalf("times = %v, want [3 10]", times)
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	var k Kernel
	var c calls
	c.at(&k, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		c.at(&k, 5, func() {})
	})
	k.Run(0)
}

func TestKernelRunLimit(t *testing.T) {
	var k Kernel
	var c calls
	n := 0
	for i := 0; i < 10; i++ {
		c.at(&k, Time(i), func() { n++ })
	}
	if k.Run(4) {
		t.Fatal("Run(4) claimed to drain")
	}
	if n != 4 {
		t.Fatalf("ran %d events, want 4", n)
	}
	if !k.Run(0) {
		t.Fatal("final Run did not drain")
	}
	if n != 10 {
		t.Fatalf("ran %d events total, want 10", n)
	}
}

func TestKernelRunUntil(t *testing.T) {
	var k Kernel
	var c calls
	var fired []Time
	for _, ti := range []Time{5, 10, 15, 20} {
		tt := ti
		c.at(&k, tt, func() { fired = append(fired, tt) })
	}
	if k.RunUntil(12) {
		t.Fatal("RunUntil(12) claimed to drain")
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want two events", fired)
	}
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	if !k.RunUntil(100) {
		t.Fatal("RunUntil(100) did not drain")
	}
	if k.Now() != 100 {
		t.Fatalf("Now = %d, want 100 after drain to deadline", k.Now())
	}
}

// TestKernelRunUntilNeverRewinds: a drained kernel given a deadline already
// behind its clock keeps its clock, so posting between the deadline and the
// clock is still a past schedule.
func TestKernelRunUntilNeverRewinds(t *testing.T) {
	var k Kernel
	var c calls
	c.at(&k, 100, func() {})
	k.Run(0)
	if !k.RunUntil(50) {
		t.Fatal("RunUntil on a drained kernel did not report drained")
	}
	if k.Now() != 100 {
		t.Fatalf("Now = %d after RunUntil(50), want 100", k.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("Post(60) after the clock reached 100 did not panic")
		}
	}()
	c.at(&k, 60, func() {})
}

func TestKernelStepEmpty(t *testing.T) {
	var k Kernel
	if k.Step() {
		t.Fatal("Step on empty kernel returned true")
	}
}

// Property: events always execute in nondecreasing time order, regardless of
// insertion order.
func TestKernelMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		var k Kernel
		var c calls
		var times []Time
		for _, d := range delays {
			c.at(&k, Time(d), func() { times = append(times, k.Now()) })
		}
		k.Run(0)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
