package vtime

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// twoShardPingPong builds a 2-shard group with symmetric links of the
// given lookahead and runs `rounds` of cross-shard ping-pong, returning
// the observed execution log (one line per event, tagged with shard and
// virtual instant). The log must be identical for any worker count.
func twoShardPingPong(workers, rounds int, lookahead Duration) string {
	g := NewGroup(1, 2)
	if err := g.Link(0, 1, lookahead); err != nil {
		panic(err)
	}
	if err := g.Link(1, 0, lookahead); err != nil {
		panic(err)
	}
	a, b := g.Shard(0), g.Shard(1)
	var mu sync.Mutex
	var log []string
	note := func(s *Scheduler, what any) {
		mu.Lock()
		log = append(log, fmt.Sprintf("shard%d %v %v", s.ShardID(), s.Now(), what))
		mu.Unlock()
	}
	var hop func(any)
	hop = func(arg any) {
		n := arg.(int)
		if n >= rounds {
			return
		}
		var src, dst *Scheduler
		if n%2 == 0 {
			src, dst = a, b
		} else {
			src, dst = b, a
		}
		note(src, n)
		src.SendTo(dst, src.Now().Add(lookahead), hop, n+1)
	}
	a.At(0, func() { hop(0) })
	// Independent local chatter on both shards so ties and interleaving
	// get exercised, not just the ping-pong chain.
	for i := 0; i < 8; i++ {
		i := i
		a.After(Duration(i)*lookahead/2, func() { note(a, fmt.Sprintf("la%d", i)) })
		b.After(Duration(i)*lookahead/2, func() { note(b, fmt.Sprintf("lb%d", i)) })
	}
	g.RunUntil(Time(Duration(rounds+16)*lookahead), workers)
	// Shard-local order is the determinism contract; the cross-shard
	// interleaving of the mu-serialized log is not. Canonicalize by
	// splitting per shard.
	var sa, sb []string
	for _, l := range log {
		if strings.HasPrefix(l, "shard0") {
			sa = append(sa, l)
		} else {
			sb = append(sb, l)
		}
	}
	return strings.Join(sa, "\n") + "\n---\n" + strings.Join(sb, "\n")
}

func TestShardedRunIsWorkerCountInvariant(t *testing.T) {
	want := twoShardPingPong(1, 40, 2e6)
	for _, workers := range []int{2, 3} {
		if got := twoShardPingPong(workers, 40, 2e6); got != want {
			t.Fatalf("workers=%d diverged from serial:\n%s\n-- want --\n%s", workers, got, want)
		}
	}
	if !strings.Contains(want, "shard1") || !strings.Contains(want, "la7") {
		t.Fatalf("log incomplete:\n%s", want)
	}
}

func TestZeroLatencyLinkRejected(t *testing.T) {
	g := NewGroup(1, 2)
	for _, d := range []Duration{0, -5e6} {
		err := g.Link(0, 1, d)
		if err == nil {
			t.Fatalf("Link with lookahead %v: want error, got nil", d)
		}
		if !strings.Contains(err.Error(), "lookahead") {
			t.Fatalf("Link error should name the lookahead, got: %v", err)
		}
	}
	if err := g.SetDefaultLookahead(0); err == nil {
		t.Fatal("SetDefaultLookahead(0): want error, got nil")
	}
	// Out-of-range / self links are also configuration errors, not
	// panics.
	if err := g.Link(0, 5, 1e6); err == nil {
		t.Fatal("Link to out-of-range shard: want error")
	}
	if err := g.Link(0, 0, 1e6); err == nil {
		t.Fatal("self link: want error")
	}
	if err := g.Link(0, 1, 2e6); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	// Declaring the edge again tightens it to the smaller lookahead and
	// never loosens it; the ring and upstream record stay single.
	dst := g.shards[1].sh
	for _, d := range []Duration{1e6, 3e6} {
		if err := g.Link(0, 1, d); err != nil {
			t.Fatalf("re-declared link (lookahead %v) rejected: %v", d, err)
		}
		if len(dst.upstream) != 1 || dst.upstream[0].lookahead != 1e6 || dst.minIn != 1e6 {
			t.Fatalf("after Link(0, 1, %v): %d upstream, lookahead %v, minIn %v; want 1, 1ms, 1ms",
				d, len(dst.upstream), dst.upstream[0].lookahead, dst.minIn)
		}
	}
}

// TestEmptyShardDoesNotStallNeighbors pins the horizon-ratchet behavior:
// a shard with no events of its own (but an incoming link, so it *could*
// receive work) must keep publishing horizons so its downstream neighbor
// can run an arbitrarily long schedule to completion.
func TestEmptyShardDoesNotStallNeighbors(t *testing.T) {
	g := NewGroup(1, 3)
	// 0 → 1 → 2 → 0 ring of links: every shard is downstream of another,
	// so if an empty shard held its horizon back, the whole ring would
	// deadlock.
	for _, l := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		if err := g.Link(l[0], l[1], 1e6); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 1 and 2 stay empty; shard 0 runs a long local-only schedule.
	s0 := g.Shard(0)
	ran := 0
	var tick func()
	tick = func() {
		ran++
		if ran < 1000 {
			s0.After(1e5, tick) // 0.1ms steps: far finer than the 1ms lookahead
		}
	}
	s0.After(0, tick)
	done := make(chan struct{})
	go func() {
		g.RunUntil(Time(2e9), 2)
		close(done)
	}()
	select {
	case <-done:
	case <-timeout(t):
		t.Fatal("empty neighbor shards stalled the run")
	}
	if ran != 1000 {
		t.Fatalf("ran %d of 1000 events", ran)
	}
	for i := 0; i < 3; i++ {
		if now := g.Shard(i).Now(); now != Time(2e9) {
			t.Fatalf("shard %d clock %v, want 2e9 (RunUntil advances every shard)", i, now)
		}
	}
}

// TestTimerResetAcrossLookaheadBoundary pins that Timer.Reset on a
// shard-local timer may re-arm past the current safe bound: local events
// are never constrained by *outgoing* lookahead, only execution is
// constrained by *incoming* horizons — and the rearmed timer still fires
// in correct global order relative to cross-shard traffic landing between
// the old and new deadlines.
func TestTimerResetAcrossLookaheadBoundary(t *testing.T) {
	const la = Duration(1e6)
	run := func(workers int) string {
		g := NewGroup(7, 2)
		if err := g.Link(0, 1, la); err != nil {
			t.Fatal(err)
		}
		if err := g.Link(1, 0, la); err != nil {
			t.Fatal(err)
		}
		a, b := g.Shard(0), g.Shard(1)
		var mu sync.Mutex
		var log []string
		note := func(s *Scheduler, what string) {
			mu.Lock()
			log = append(log, fmt.Sprintf("shard%d %v %s", s.ShardID(), s.Now(), what))
			mu.Unlock()
		}
		// Shard 1 arms a timer inside the first safe window, then resets
		// it far beyond the lookahead boundary. Shard 0 streams events to
		// shard 1 that land between the original and the reset deadline.
		var tm *Timer
		b.At(0, func() {
			tm = NewTimer(func() { note(b, "timer-fired") })
			tm.Reset(b, la/2)
		})
		b.At(Time(la/4), func() {
			tm.Reset(b, 10*la) // re-arm across many lookahead windows
			note(b, "timer-reset")
		})
		for i := 1; i <= 8; i++ {
			i := i
			a.At(Time(Duration(i)*la), func() {
				a.SendTo(b, a.Now().Add(la), func(arg any) {
					note(b, fmt.Sprintf("arrival%d", arg.(int)))
				}, i)
			})
		}
		g.RunUntil(Time(20*la), workers)
		mu.Lock()
		defer mu.Unlock()
		var s1 []string
		for _, l := range log {
			if strings.HasPrefix(l, "shard1") {
				s1 = append(s1, l)
			}
		}
		return strings.Join(s1, "\n")
	}
	want := run(1)
	if got := run(2); got != want {
		t.Fatalf("reset-across-boundary order differs by worker count:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The reset must have moved the firing after every arrival that lands
	// before 10*la.
	iFired := strings.Index(want, "timer-fired")
	iLast := strings.Index(want, "arrival8")
	if iFired < 0 || iLast < 0 || iFired < iLast {
		t.Fatalf("timer did not fire after the arrivals it was reset past:\n%s", want)
	}
	if !strings.Contains(want, "timer-reset") {
		t.Fatalf("reset event missing:\n%s", want)
	}
}

// TestTimerMigrates pins that a Timer is bound to no scheduler: stopped
// on shard 0 and re-armed on shard 1 after a cross-shard hop, it fires on
// shard 1, for any worker count. Re-arming it on one shard while it is
// still pending on another is an invariant violation.
func TestTimerMigrates(t *testing.T) {
	const la = Duration(1e6)
	for _, workers := range []int{1, 2} {
		g := NewGroup(1, 2)
		if err := g.Link(0, 1, la); err != nil {
			t.Fatal(err)
		}
		a, b := g.Shard(0), g.Shard(1)
		var fired []string
		var tm *Timer
		tm = NewTimer(func() { fired = append(fired, fmt.Sprintf("shard%d %v", tm.s.ShardID(), tm.s.Now())) })
		a.At(0, func() { tm.Reset(a, 10*la) })
		a.At(Time(la), func() {
			if !tm.Stop() {
				t.Error("timer armed on shard 0 was not pending there")
			}
			a.SendTo(b, a.Now().Add(la), func(any) { tm.Reset(b, la) }, nil)
		})
		g.RunUntil(Time(20*la), workers)
		if want := fmt.Sprintf("shard1 %v", Time(3*la)); len(fired) != 1 || fired[0] != want {
			t.Fatalf("workers=%d: fired %v, want [%s]", workers, fired, want)
		}
	}

	g := NewGroup(1, 2)
	tm := NewTimer(func() {})
	tm.Reset(g.Shard(0), la)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "pending on shard 0") {
			t.Fatalf("Reset on shard 1 of a timer pending on shard 0: recovered %q, want the invariant panic", msg)
		}
	}()
	tm.Reset(g.Shard(1), la)
}

// TestSendToDrain pins Group.Run: cross-shard events queued beyond the
// last RunUntil deadline drain to completion, and Pending reaches zero.
func TestSendToDrain(t *testing.T) {
	g := NewGroup(3, 2)
	if err := g.Link(0, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	a, b := g.Shard(0), g.Shard(1)
	got := 0
	a.At(0, func() {
		a.SendTo(b, Time(5e8), func(any) { got++ }, nil)
	})
	g.RunUntil(Time(1e6), 2) // deadline well before the cross-shard event
	if got != 0 {
		t.Fatal("event beyond the deadline ran early")
	}
	if g.Pending() == 0 {
		t.Fatal("pending cross-shard event not counted")
	}
	if at, ok := g.NextAt(); !ok || at != Time(5e8) {
		t.Fatalf("NextAt = %v, %v; want 5e8, true", at, ok)
	}
	g.Run(2)
	if got != 1 {
		t.Fatalf("drained %d events, want 1", got)
	}
	if g.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", g.Pending())
	}
}

// timeout returns a channel that fires after a generous real-time bound,
// for deadlock-sensitive assertions (package vtime is the one place the
// real clock is allowed).
func timeout(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(30 * time.Second)
}

// burstRun sends 3*ringCap events from shard 0 to shard 1 over one
// declared link, perSender of them from each sender event, and returns the
// receiver's execution order with the sender's counts. Sender events fire
// one lookahead apart and every target lies past the last of them, so
// perSender bounds how many events the ring holds between the receiver's
// drains. Targets tie in groups (i*7%5 ns past base), so the sender's
// sequence numbers decide among equal timestamps.
func burstRun(t *testing.T, workers, perSender int) (order []int, overflow uint64) {
	t.Helper()
	const la = Duration(1e6)
	const n = 3 * ringCap
	g := NewGroup(1, 2)
	if err := g.Link(0, 1, la); err != nil {
		t.Fatal(err)
	}
	if err := g.Link(1, 0, la); err != nil {
		t.Fatal(err)
	}
	a, b := g.Shard(0), g.Shard(1)
	record := func(arg any) { order = append(order, arg.(int)) }
	senders := n / perSender
	base := Time(Duration(senders+1) * la)
	for k := 0; k < senders; k++ {
		k := k
		a.At(Time(Duration(k)*la), func() {
			for i := k * perSender; i < (k+1)*perSender; i++ {
				a.SendTo(b, base.Add(Duration(i*7%5)), record, i)
			}
		})
	}
	g.RunUntil(base.Add(10), workers)
	if len(order) != n {
		t.Fatalf("receiver ran %d of %d events", len(order), n)
	}
	ring, overflow := g.Sends(0)
	if ring+overflow != n {
		t.Fatalf("sends: %d by ring + %d by inbox, want %d in all", ring, overflow, n)
	}
	return order, overflow
}

// TestRingOverflowKeepsOrder: a burst larger than the link's ring inside
// one lookahead window spills into the mutex inbox, and the receiver still
// executes it in the order of a run whose ring never fills.
func TestRingOverflowKeepsOrder(t *testing.T) {
	want, ref := burstRun(t, 1, ringCap/4)
	if ref != 0 {
		t.Fatalf("reference run overflowed %d events", ref)
	}
	for _, workers := range []int{1, 2} {
		got, overflow := burstRun(t, workers, 3*ringCap)
		if overflow == 0 {
			t.Errorf("workers=%d: burst of %d never overflowed a %d-slot ring", workers, 3*ringCap, ringCap)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("workers=%d: overflowed order\n%v\nwant\n%v", workers, got, want)
		}
	}
}
