// Package vtime implements a deterministic discrete-event virtual-time
// scheduler. All simulated network activity in this repository is driven by
// a single Scheduler: links, retransmission timers, lease expiries and
// registration lifetimes all schedule callbacks at virtual instants, and the
// scheduler executes them in strict (time, sequence) order. Runs are fully
// reproducible: given the same seed and the same sequence of scheduled
// events, every experiment produces identical traces.
package vtime

import (
	"math/rand/v2"
	"time"

	"mob4x4/internal/assert"
)

// Time is an instant in virtual time, measured as a duration since the start
// of the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration re-exports time.Duration for readability at call sites.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

func (t Time) String() string { return time.Duration(t).String() }

// An event is a callback scheduled at a virtual instant. Events are stored
// by value inside the scheduler's heap slice — no per-event allocation and
// no interface boxing beyond arg. The (origin, seq) pair breaks timestamp
// ties so that events scheduled earlier run earlier, keeping the
// simulation deterministic. origin is the shard that scheduled the event
// (always 0 for a standalone Scheduler) and seq is that shard's scheduling
// counter; both are intrinsic to the schedule — they never depend on how
// many worker goroutines a sharded run uses — so the execution order of
// every shard's queue is identical for any worker count. The same value
// travels between shards: a cross-shard event sits in a ring or inbox
// until its destination drains it into the heap. timed marks an event
// armed by Timer.Reset, whose arg is the *Timer; the heap keeps that
// handle's pos in sync. The flag sits in origin's padding, so an event
// is 48 bytes.
type event struct {
	at     Time
	seq    uint64
	origin int32
	timed  bool
	fn     func(any)
	arg    any
}

// setPos records heap slot pos-1 (0: not queued) on the event's handle,
// if it has one.
func (e *event) setPos(pos int) {
	if e.timed {
		e.arg.(*Timer).pos = pos
	}
}

// callFunc runs a func() stored as an event's arg: At and After schedule
// through it, and since a func value is pointer-shaped, storing one in an
// interface does not allocate.
func callFunc(fn any) { fn.(func())() }

// fireTimer runs the callback of the *Timer stored as an event's arg.
func fireTimer(t any) { t.(*Timer).fn() }

// Timer is a re-armable handle to one callback. It is bound to no
// scheduler: Reset arms it on the scheduler its owner runs on now, so an
// entity that migrates between shards keeps its handles. Stopping a Timer
// that has already fired (or was already stopped) is a harmless no-op,
// and Stop and Pending accept a nil *Timer.
type Timer struct {
	s  *Scheduler // the scheduler the callback was last armed on
	fn func()
	// pos is the event's heap index + 1; 0 means not pending (fired,
	// stopped, or never armed). The heap updates it on every move, which
	// is what makes Stop a true O(log n) removal rather than a
	// mark-and-skip.
	pos int
}

// NewTimer returns an unarmed handle that runs fn each time it fires.
func NewTimer(fn func()) *Timer {
	if fn == nil {
		assert.Unreachable("vtime: nil event function")
	}
	return &Timer{fn: fn}
}

// Pending reports whether the callback is still scheduled.
func (t *Timer) Pending() bool { return t != nil && t.pos > 0 }

// Stop cancels the timer, removing its event from the scheduler's queue.
// It reports whether the callback was still pending.
func (t *Timer) Stop() bool {
	if t == nil || t.pos == 0 {
		return false
	}
	t.s.removeAt(t.pos - 1)
	return true
}

// Reset arms the timer on s to run its callback d after s's current
// instant, cancelling the pending run if there is one. s must be the
// scheduler the caller runs on; re-arming a timer still pending on
// another scheduler is a logic error (stop it there first). Re-arming
// allocates nothing — retransmission timers (tcplite) reset on every ACK
// without churning the heap allocator.
func (t *Timer) Reset(s *Scheduler, d Duration) {
	if t.fn == nil {
		assert.Unreachable("vtime: Reset of a timer with no callback (build it with NewTimer)")
	}
	if t.pos > 0 {
		if t.s != s {
			assert.Unreachable("vtime: Reset on shard %d of a timer pending on shard %d", s.origin, t.s.origin)
		}
		s.removeAt(t.pos - 1)
	}
	if d < 0 {
		d = 0
	}
	t.s = s
	s.schedule(s.now.Add(d), fireTimer, t, true)
}

// Scheduler is a discrete-event executor. It is not safe for concurrent use;
// one simulation is single-threaded by design (determinism beats parallelism
// within a run — the experiment harness parallelizes across independent
// Scheduler instances instead).
type Scheduler struct {
	now Time
	seq uint64
	// events is a 4-ary min-heap ordered by (at, origin, seq), stored by
	// value. 4-ary beats binary here: shallower sifts and better cache
	// behavior on the wide nodes, with no interface conversions anywhere.
	events  []event
	seed    int64
	streams uint64
	stopped bool
	// origin is this scheduler's shard id within its Group (0 for a
	// standalone Scheduler); it tags every event the scheduler enqueues.
	origin int32
	// sh is the shard synchronization state; nil for a standalone
	// Scheduler, set by NewGroup.
	sh *shardState
	// Processed counts events executed since construction; useful as a
	// cheap progress/cost metric in benchmarks.
	Processed uint64
}

// NewScheduler returns a scheduler positioned at the epoch whose minted
// random streams derive from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{seed: seed}
}

// Now returns the current virtual instant.
func (s *Scheduler) Now() Time { return s.now }

// Domain tags the second PCG seed word of a random stream with the kind of
// entity that owns it. Domains occupy the top byte and indices the low 56
// bits, so streams from different domains never share seed material,
// whatever their indices.
type Domain uint64

const (
	DomainEntity        Domain = (iota + 1) << 56 // Scheduler.NewStream: index = shard<<32 | stream count
	DomainFleetNode                               // one fleet node's movement and workload, by node
	DomainFleetAttacker                           // one fleet thief's forgery schedule, by attacker
)

// Stream is the one derivation of every random stream in the module: a
// PCG generator (16 bytes of state, tens of ns to seed) keyed by the seed
// and the domain-tagged index. index must stay below 2^56.
func Stream(seed int64, d Domain, index uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(d)|index))
}

// NewStream derives an independent random stream from (seed, shard,
// index), where index counts the streams this scheduler has minted. Every
// entity that draws randomness owns one such stream for its lifetime: its
// draw sequence is then a pure function of the seed and construction
// order, never of how unrelated events interleave — the property the
// sharded engine needs to keep per-seed output byte-identical across
// shard layouts.
func (s *Scheduler) NewStream() *rand.Rand {
	s.streams++
	return Stream(s.seed, DomainEntity, uint64(s.origin)<<32|s.streams)
}

// At schedules fn to run at instant t. Scheduling in the past (before Now)
// panics: it is always a logic error in a discrete-event simulation. At
// returns no handle and allocates nothing beyond the caller's closure;
// use NewTimer for a callback that may be cancelled or re-armed.
func (s *Scheduler) At(t Time, fn func()) {
	if fn == nil {
		assert.Unreachable("vtime: nil event function")
	}
	s.schedule(t, callFunc, fn, false)
}

// After schedules fn to run d after the current instant; see At.
func (s *Scheduler) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now.Add(d), fn)
}

// schedule enqueues fn(arg) at instant t on s with the next sequence
// number; timed marks arg as the *Timer whose pos the heap maintains.
func (s *Scheduler) schedule(t Time, fn func(any), arg any, timed bool) {
	if t < s.now {
		assert.Unreachable("vtime: scheduling event at %v before now %v", t, s.now)
	}
	s.seq++
	s.push(event{at: t, seq: s.seq, origin: s.origin, timed: timed, fn: fn, arg: arg})
}

// Stop makes the currently executing Run return after the active callback
// finishes. Pending events remain queued.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called. It
// returns the final virtual instant.
func (s *Scheduler) Run() Time {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		s.step()
	}
	return s.now
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (s *Scheduler) RunUntil(deadline Time) Time {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		if s.events[0].at > deadline {
			break
		}
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.now
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Scheduler) RunFor(d Duration) Time { return s.RunUntil(s.now.Add(d)) }

// Pending reports how many events are queued. Stopped timers are removed
// from the queue immediately, so they are never counted.
func (s *Scheduler) Pending() int { return len(s.events) }

// NextAt returns the timestamp of the earliest queued event. ok is false
// when the queue is empty. Quiescence checks use it to report *what* is
// still pending when a run fails to drain.
func (s *Scheduler) NextAt() (Time, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

func (s *Scheduler) step() {
	e := s.events[0]
	e.setPos(0)
	n := len(s.events) - 1
	s.events[0] = s.events[n]
	s.events[n] = event{}
	s.events = s.events[:n]
	if n > 1 {
		s.siftDown(0)
	} else if n == 1 {
		s.events[0].setPos(1)
	}
	if e.at > s.now {
		s.now = e.at
	}
	s.Processed++
	e.fn(e.arg)
}

// less orders heap elements by (at, origin, seq). origin before seq:
// within one timestamp, ties first group by the scheduling shard and then
// by that shard's own counter, so the order is a pure function of the
// schedule itself (standalone schedulers have origin 0 everywhere, which
// reduces to the original (at, seq) order).
func (s *Scheduler) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

func (s *Scheduler) push(e event) {
	s.events = append(s.events, e)
	s.siftUp(len(s.events) - 1)
}

// removeAt deletes the event at heap index i, fixing up the heap and any
// timer backpointers. Used by Timer.Stop/Reset for true removal (the old
// container/heap implementation marked events cancelled and skipped them at
// pop time, leaving dead entries — and their closures — queued).
func (s *Scheduler) removeAt(i int) {
	s.events[i].setPos(0)
	n := len(s.events) - 1
	if i != n {
		s.events[i] = s.events[n]
	}
	s.events[n] = event{}
	s.events = s.events[:n]
	if i < n {
		s.siftDown(i)
		s.siftUp(i)
	}
}

func (s *Scheduler) siftUp(i int) {
	h := s.events
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !s.less(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		h[i].setPos(i + 1)
		i = p
	}
	h[i] = e
	e.setPos(i + 1)
}

func (s *Scheduler) siftDown(i int) {
	h := s.events
	n := len(h)
	e := h[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s.less(&h[j], &h[best]) {
				best = j
			}
		}
		if !s.less(&h[best], &e) {
			break
		}
		h[i] = h[best]
		h[i].setPos(i + 1)
		i = best
	}
	h[i] = e
	e.setPos(i + 1)
}
