package vtime

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRunsInTimeOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []Time
	for _, d := range []Duration{5e9, 1e9, 3e9, 2e9, 4e9} {
		d := d
		s.After(d, func() { got = append(got, s.Now()) })
	}
	s.Run()
	if len(got) != 5 {
		t.Fatalf("ran %d events", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("events out of order: %v", got)
	}
	if got[0] != Time(1e9) || got[4] != Time(5e9) {
		t.Errorf("timestamps wrong: %v", got)
	}
}

func TestTieBreakBySubmissionOrder(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(1e9), func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break broken: %v", order)
		}
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := NewTimer(func() { fired = true })
	if tm.Stop() {
		t.Error("Stop on an unarmed timer returned true")
	}
	tm.Reset(s, 1e9)
	if !tm.Stop() {
		t.Error("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	s.Run()
	if fired {
		t.Error("cancelled timer fired")
	}
	// Stopping a fired timer.
	fired = false
	tm2 := NewTimer(func() { fired = true })
	tm2.Reset(s, 1e9)
	s.Run()
	if !fired {
		t.Fatal("timer did not fire")
	}
	if tm2.Stop() {
		t.Error("Stop after firing returned true")
	}
	// Nil-safety.
	var nilT *Timer
	if nilT.Stop() {
		t.Error("nil timer Stop returned true")
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := NewScheduler(1)
	var fired []int
	s.After(1e9, func() { fired = append(fired, 1) })
	s.After(3e9, func() { fired = append(fired, 3) })
	s.RunUntil(Time(2e9))
	if len(fired) != 1 || fired[0] != 1 {
		t.Errorf("fired = %v", fired)
	}
	if s.Now() != Time(2e9) {
		t.Errorf("clock = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	s.Run()
	if len(fired) != 2 {
		t.Errorf("later event lost: %v", fired)
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	s := NewScheduler(1)
	s.RunFor(5e9)
	if s.Now() != Time(5e9) {
		t.Fatalf("now = %v", s.Now())
	}
	s.RunFor(5e9)
	if s.Now() != Time(10e9) {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler(1)
	var seq []string
	s.After(1e9, func() {
		seq = append(seq, "a")
		s.After(1e9, func() { seq = append(seq, "b") })
	})
	s.Run()
	if len(seq) != 2 || seq[1] != "b" || s.Now() != Time(2e9) {
		t.Errorf("seq=%v now=%v", seq, s.Now())
	}
}

func TestAfterZeroRunsAfterCurrentInstantQueue(t *testing.T) {
	s := NewScheduler(1)
	var seq []string
	s.At(Time(1e9), func() {
		s.After(0, func() { seq = append(seq, "posted") })
		seq = append(seq, "first")
	})
	s.At(Time(1e9), func() { seq = append(seq, "second") })
	s.Run()
	want := []string{"first", "second", "posted"}
	for i := range want {
		if i >= len(seq) || seq[i] != want[i] {
			t.Fatalf("seq = %v, want %v", seq, want)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.After(1e9, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(Time(0), func() {})
	})
	s.Run()
}

func TestStopHaltsRun(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i)*1e9, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("ran %d events after Stop", count)
	}
	s.Run() // resume
	if count != 10 {
		t.Errorf("resume ran to %d", count)
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	s.After(-5, func() { fired = true })
	s.Run()
	if !fired {
		t.Error("negative delay event lost")
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewScheduler(99)
	b := NewScheduler(99)
	for i := 0; i < 100; i++ {
		sa, sb := a.NewStream(), b.NewStream()
		for j := 0; j < 10; j++ {
			if sa.Uint64() != sb.Uint64() {
				t.Fatalf("stream %d: same seed, different draws", i+1)
			}
		}
	}
}

// TestNewStreamAllocs pins the cost of minting a stream: the PCG source
// and the Rand wrapping it, nothing else.
func TestNewStreamAllocs(t *testing.T) {
	s := NewScheduler(1)
	if n := testing.AllocsPerRun(1000, func() { _ = s.NewStream() }); n > 2 {
		t.Errorf("NewStream allocates %v times, want <= 2", n)
	}
}

// TestStreamDomainsDisjoint checks that the first draws of every stream
// family the module mints from one seed are pairwise distinct: entity
// streams 1..4096 on each of four shards, and fleet node and attacker
// streams 0..100000.
func TestStreamDomainsDisjoint(t *testing.T) {
	const seed = 1
	seen := make(map[uint64]string, 4*4096+2*100_001)
	note := func(draw uint64, who string) {
		if prev, ok := seen[draw]; ok {
			t.Fatalf("%s and %s start with the same draw %#x", prev, who, draw)
		}
		seen[draw] = who
	}
	for shard, s := range NewGroup(seed, 4).shards {
		for i := 1; i <= 4096; i++ {
			note(s.NewStream().Uint64(), fmt.Sprintf("shard %d stream %d", shard, i))
		}
	}
	for i := uint64(0); i <= 100_000; i++ {
		note(Stream(seed, DomainFleetNode, i).Uint64(), fmt.Sprintf("fleet node %d", i))
		note(Stream(seed, DomainFleetAttacker, i).Uint64(), fmt.Sprintf("fleet attacker %d", i))
	}
}

func TestExecutionOrderProperty(t *testing.T) {
	// Property: for any set of delays, callbacks observe a
	// non-decreasing clock and all run.
	f := func(delays []uint32) bool {
		s := NewScheduler(5)
		var times []Time
		for _, d := range delays {
			s.After(Duration(d%1e9), func() { times = append(times, s.Now()) })
		}
		s.Run()
		if len(times) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	a := Time(1e9)
	if a.Add(5e8) != Time(15e8) {
		t.Error("Add")
	}
	if a.Add(5e8).Sub(a) != Duration(5e8) {
		t.Error("Sub")
	}
	if !a.Before(a.Add(1)) || a.Before(a) {
		t.Error("Before")
	}
	if !a.Add(1).After(a) || a.After(a) {
		t.Error("After")
	}
	if a.String() != "1s" {
		t.Errorf("String = %q", a.String())
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(Duration(rng.Intn(1000)), func() {})
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}
