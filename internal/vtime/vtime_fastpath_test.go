package vtime

import (
	"testing"

	"mob4x4/internal/race"
)

// TestTimerReset pins the Reset semantics the tcplite retransmission timer
// depends on: re-arming a pending timer moves its single callback, and
// resetting a fired timer schedules it again — with no new Timer handle.
func TestTimerReset(t *testing.T) {
	s := NewScheduler(1)
	var fired []Time
	tm := NewTimer(func() { fired = append(fired, s.Now()) })
	if tm.Pending() || s.Pending() != 0 {
		t.Fatal("NewTimer scheduled something")
	}
	tm.Reset(s, 100)

	tm.Reset(s, 250) // supersedes the pending 100ns run
	s.Run()
	if len(fired) != 1 || fired[0] != 250 {
		t.Fatalf("after Reset of pending timer, fired = %v, want [250]", fired)
	}
	if tm.Pending() {
		t.Fatal("timer still pending after firing")
	}

	tm.Reset(s, 50) // re-arm after fire, reusing the same handle
	if !tm.Pending() {
		t.Fatal("timer not pending after Reset")
	}
	s.Run()
	if len(fired) != 2 || fired[1] != 300 {
		t.Fatalf("after second Reset, fired = %v, want [250 300]", fired)
	}
}

// TestTimerStopRemoves checks that Stop is a true removal: the event leaves
// the queue immediately instead of lingering as a cancelled entry.
func TestTimerStopRemoves(t *testing.T) {
	s := NewScheduler(1)
	tm := NewTimer(func() { t.Fatal("stopped timer fired") })
	tm.Reset(s, 100)
	s.After(200, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	if !tm.Stop() {
		t.Fatal("Stop returned false for a pending timer")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after Stop, want 1 (true removal)", s.Pending())
	}
	if tm.Pending() {
		t.Fatal("timer reports pending after Stop")
	}
	s.Run()
}

// TestSendToLocalOrdering checks that a local SendTo interleaves with At
// and After in strict submission order at the same instant.
func TestSendToLocalOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.SendTo(s, 10, func(a any) { got = append(got, a.(int)) }, 1)
	s.At(10, func() { got = append(got, 2) })
	s.After(10, func() { got = append(got, 3) })
	s.SendTo(s, s.Now().Add(10), func(a any) { got = append(got, a.(int)) }, 4)
	s.Run()
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("got %v, want [1 2 3 4]", got)
	}
}

// TestScheduleAllocs pins the zero-allocation contract of the three ways
// to schedule once the heap slice has warmed up: After with a prebuilt
// func (no handle is made), a local SendTo, and re-arming a Timer.
func TestScheduleAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	s := NewScheduler(1)
	fn := func() {}
	afn := func(any) {}
	arg := new(int)
	tm := NewTimer(fn)
	// Warm the heap slice so append growth is out of the picture.
	for i := 0; i < 64; i++ {
		s.After(1, fn)
	}
	s.Run()
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"After", func() { s.After(1, fn) }},
		{"SendTo", func() { s.SendTo(s, s.Now().Add(1), afn, arg) }},
		{"Timer.Reset", func() { tm.Reset(s, 1) }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			c.op()
			s.Run()
		})
		if allocs != 0 {
			t.Errorf("%s+Run allocates %v per op, want 0", c.name, allocs)
		}
	}
}

// TestRemoveMiddleKeepsOrder stops a timer buried in the middle of a large
// heap and checks the remaining events still run in (time, seq) order.
func TestRemoveMiddleKeepsOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []Time
	var timers []*Timer
	for i := 100; i > 0; i-- {
		at := Time(i * 10)
		tm := NewTimer(func() { got = append(got, at) })
		tm.Reset(s, Duration(at))
		timers = append(timers, tm)
	}
	// Stop every third timer.
	stopped := map[Time]bool{}
	for i, tm := range timers {
		if i%3 == 1 {
			tm.Stop()
			stopped[Time((100-i)*10)] = true
		}
	}
	s.Run()
	var last Time = -1
	for _, at := range got {
		if stopped[at] {
			t.Fatalf("stopped timer at %v fired", at)
		}
		if at <= last {
			t.Fatalf("events out of order: %v after %v", at, last)
		}
		last = at
	}
	if want := 100 - len(stopped); len(got) != want {
		t.Fatalf("%d events ran, want %d", len(got), want)
	}
}
