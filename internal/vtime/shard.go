package vtime

// Sharded multi-core execution. A Group owns N region shards, each a full
// Scheduler — its own 4-ary timer heap, virtual clock, tie-break counter
// and (seed,index)-derived RNG streams — and runs them on worker
// goroutines under conservative-lookahead synchronization:
//
//   - Every inter-shard link declares a lookahead L > 0: the sender
//     promises that anything it sends over that link carries a timestamp
//     at least L past its own virtual clock (for a network link, L is the
//     link latency — a frame entering the wire now cannot pop out at the
//     far end sooner).
//   - Each shard publishes a monotone horizon: a lower bound on the
//     timestamp of anything it will ever execute (and therefore send)
//     from now on.
//   - A shard may execute events strictly earlier than
//     min over upstream links (horizon(src) + L(src→dst)); up to that
//     bound no in-flight or future message can precede them.
//
// Cross-shard events travel through bounded SPSC rings (one per declared
// link, pre-sized, no allocation on the steady-state path) with a
// mutex-guarded overflow inbox as the slow path; entries carry the
// intrinsic (at, origin, seq) key assigned by the sender, so once drained
// into the destination heap they order exactly the same way regardless of
// worker count or drain timing. Combined with the strict execution bound
// — which guarantees every event that must precede the bound has already
// been drained — each shard's execution sequence is a pure function of
// the seed and topology: one worker or sixteen, the run is byte-identical.
//
// Memory ordering: a sender pushes into the ring (release via the ring's
// tail store) before publishing a higher horizon (release store), and a
// receiver loads horizons (acquire) before draining rings, so any entry
// older than an observed horizon is visible by the time the bound derived
// from that horizon permits execution past it.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mob4x4/internal/assert"
)

// ringCap is the SPSC ring capacity per declared link (power of two).
// Sized for the frame rate of one busy uplink between two horizon scans:
// the fleet storm's peak occupancy is 4 at 2,000 nodes (any worker
// count), 8–9 at 10,000 and 12 with route optimization. Overflow falls
// back to the mutex inbox rather than blocking, so the cap bounds memory,
// not correctness; Group.Sends counts how often it happens.
const ringCap = 32

// ring is a bounded single-producer single-consumer queue. The producer
// is the sending shard's worker, the consumer the receiving shard's
// worker; head/tail are indices into an always-power-of-two buffer.
type ring struct {
	head atomic.Uint64 // next slot to pop (consumer-owned)
	tail atomic.Uint64 // next slot to push (producer-owned)
	buf  [ringCap]event
}

// push appends e; it reports false when the ring is full (the caller
// falls back to the overflow inbox — never blocks, so a stalled consumer
// cannot deadlock its producers).
func (r *ring) push(e event) bool {
	t := r.tail.Load()
	if t-r.head.Load() == ringCap {
		return false
	}
	r.buf[t%ringCap] = e
	r.tail.Store(t + 1)
	return true
}

// pop removes the oldest entry; ok is false when the ring is empty.
func (r *ring) pop() (event, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return event{}, false
	}
	e := r.buf[h%ringCap]
	r.buf[h%ringCap] = event{} // drop refs before the slot is reused
	r.head.Store(h + 1)
	return e, true
}

// pending reports the queued entry count (approximate under concurrency;
// exact when the group is quiescent, which is when Pending/NextAt run).
func (r *ring) pending() uint64 { return r.tail.Load() - r.head.Load() }

// upLink is one declared incoming edge of a shard.
type upLink struct {
	src       *Scheduler
	lookahead Time
	ring      *ring
}

// shardState is the per-shard synchronization block hanging off a
// Scheduler that belongs to a Group.
type shardState struct {
	group *Group
	id    int32

	// horizon is the published lower bound (as int64 nanoseconds of Time)
	// on the timestamp of anything this shard will execute — and hence
	// send — from now on. Monotone within a run.
	horizon atomic.Int64

	// upstream lists declared incoming links (with their rings) in
	// declaration order.
	upstream []upLink
	// out maps destination shard id → the outgoing ring for the declared
	// link, nil when only the default lookahead connects the pair.
	out []*ring // indexed by destination shard id
	// minIn is the smallest incoming lookahead (declared links and, when
	// set, the group default), used for the dense horizon scan.
	minIn Time

	// ringSends and overflowSends count this shard's sends over declared
	// links that the ring took and that found it full; only the shard's
	// own worker writes them.
	ringSends, overflowSends uint64

	// inbox is the overflow / undeclared-pair path: mutex-guarded MPSC
	// slice, drained by swapping with spare.
	inboxMu sync.Mutex
	inbox   []event
	spare   []event
}

// Group is a set of region shards executing one simulation under
// conservative-lookahead synchronization.
type Group struct {
	shards []*Scheduler

	// defaultLookahead > 0 permits sends between any shard pair (with at
	// least that much timestamp slack) and switches the safe bound to the
	// dense form min over all other shards (horizon + minIn).
	defaultLookahead Time

	mu      sync.Mutex
	cond    *sync.Cond
	version uint64 // bumped on every horizon publication
	parked  int
	anyLink bool
}

// NewGroup builds n region shards sharing seed; NewStream folds the shard
// id into each stream's index, so every shard mints independent — but
// reproducible — RNG streams.
func NewGroup(seed int64, n int) *Group {
	if n < 1 {
		n = 1
	}
	g := &Group{shards: make([]*Scheduler, n)}
	g.cond = sync.NewCond(&g.mu)
	for i := 0; i < n; i++ {
		s := NewScheduler(seed)
		s.origin = int32(i)
		s.sh = &shardState{
			group: g,
			id:    int32(i),
			out:   make([]*ring, n),
			minIn: maxTime,
		}
		g.shards[i] = s
	}
	return g
}

// maxTime is the far-future sentinel bound.
const maxTime = Time(1<<63 - 1)

// Shards returns the shard count.
func (g *Group) Shards() int { return len(g.shards) }

// Shard returns shard i's scheduler.
func (g *Group) Shard(i int) *Scheduler { return g.shards[i] }

// ShardID returns the scheduler's shard index within its group (0 for a
// standalone scheduler).
func (s *Scheduler) ShardID() int { return int(s.origin) }

// Group returns the group the scheduler belongs to, nil for a standalone
// scheduler.
func (s *Scheduler) Group() *Group {
	if s.sh == nil {
		return nil
	}
	return s.sh.group
}

// Link declares a directed src→dst edge with the given lookahead: every
// SendTo over the pair must carry a timestamp at least lookahead past the
// sender's clock. Declaring an edge that exists tightens its lookahead to
// the smaller of the two: split segments laid over the same shard pair
// each promise their own link latency, the pair's safe window is the
// minimum of them, and callers need not know whether an earlier segment
// already declared the edge. A zero or negative lookahead is rejected —
// with no timestamp slack the receiver could never safely execute
// anything, so such a link would deadlock the pair (model zero-latency
// coupling by putting both endpoints in one shard instead). Declaring a
// link allocates the pair's SPSC ring; pairs without a declared link may
// still communicate through the overflow inbox when SetDefaultLookahead
// is set.
func (g *Group) Link(src, dst int, lookahead Duration) error {
	if src < 0 || src >= len(g.shards) || dst < 0 || dst >= len(g.shards) {
		return fmt.Errorf("vtime: Link(%d, %d): shard index out of range [0, %d)", src, dst, len(g.shards))
	}
	if src == dst {
		return fmt.Errorf("vtime: Link(%d, %d): a shard needs no link to itself", src, dst)
	}
	if lookahead <= 0 {
		return fmt.Errorf("vtime: Link(%d, %d): lookahead %v must be positive — a zero-latency "+
			"inter-shard link admits no safe execution window (merge the regions into one shard instead)",
			src, dst, lookahead)
	}
	ss, ds := g.shards[src].sh, g.shards[dst].sh
	if Time(lookahead) < ds.minIn {
		ds.minIn = Time(lookahead)
	}
	if ss.out[dst] != nil {
		for i := range ds.upstream {
			if ds.upstream[i].src == g.shards[src] {
				ds.upstream[i].lookahead = min(ds.upstream[i].lookahead, Time(lookahead))
				return nil
			}
		}
		assert.Unreachable("vtime: link ring exists without upstream record")
	}
	r := new(ring)
	ss.out[dst] = r
	ds.upstream = append(ds.upstream, upLink{src: g.shards[src], lookahead: Time(lookahead), ring: r})
	g.anyLink = true
	return nil
}

// SetDefaultLookahead sets the group-wide floor lookahead: any shard may
// send to any other with at least d of timestamp slack (fleet uses this
// for node-migration hops, whose transit delay is a topology constant).
// It must be no larger than any declared link's lookahead — the safe
// bound uses the smallest incoming slack per shard.
func (g *Group) SetDefaultLookahead(d Duration) error {
	if d <= 0 {
		return fmt.Errorf("vtime: SetDefaultLookahead(%v): lookahead must be positive", d)
	}
	g.defaultLookahead = Time(d)
	for _, s := range g.shards {
		if Time(d) < s.sh.minIn {
			s.sh.minIn = Time(d)
		}
	}
	return nil
}

// SendTo schedules fn(arg) at instant t on dst. It must be called from
// an event executing on s (or from the build/measure phases, when no
// workers run). dst == s is a local schedule on any scheduler, grouped
// or standalone; otherwise dst must share s's group and t must respect
// the pair's lookahead: the conservative synchronizer's safety rests on
// that slack. With a package-level fn and a pointer-typed arg the call
// allocates nothing, locally or over a declared link's ring; the
// overflow inbox (ring full, or pair covered only by the default
// lookahead) may grow a slice.
func (s *Scheduler) SendTo(dst *Scheduler, t Time, fn func(any), arg any) {
	if fn == nil {
		assert.Unreachable("vtime: nil event function")
	}
	if dst == s {
		s.schedule(t, fn, arg, false)
		return
	}
	if s.sh == nil || dst.sh == nil || s.sh.group != dst.sh.group {
		assert.Unreachable("vtime: SendTo across schedulers that do not share a group")
	}
	g := s.sh.group
	var la Time
	if r := s.sh.out[dst.sh.id]; r != nil {
		la = dst.lookaheadFrom(s)
		if g.defaultLookahead > 0 && g.defaultLookahead < la {
			// With a group default set, the receiver's safe bound only
			// assumes the default's slack from any sender (the dense scan
			// uses its minimum incoming lookahead), so a send with default
			// slack over a longer declared link is still conservative —
			// fleet migrations ride this between link-connected regions.
			la = g.defaultLookahead
		}
		s.checkSlack(dst, t, la)
		s.seq++
		e := event{at: t, seq: s.seq, origin: s.origin, fn: fn, arg: arg}
		if r.push(e) {
			s.sh.ringSends++
			return
		}
		s.sh.overflowSends++
		dst.sh.pushInbox(e)
		return
	}
	la = g.defaultLookahead
	if la == 0 {
		assert.Unreachable("vtime: SendTo between shards %d and %d with no link and no default lookahead",
			s.origin, dst.origin)
	}
	s.checkSlack(dst, t, la)
	s.seq++
	dst.sh.pushInbox(event{at: t, seq: s.seq, origin: s.origin, fn: fn, arg: arg})
}

// lookaheadFrom returns the declared lookahead of the src→dst link.
func (dst *Scheduler) lookaheadFrom(src *Scheduler) Time {
	for i := range dst.sh.upstream {
		if dst.sh.upstream[i].src == src {
			return dst.sh.upstream[i].lookahead
		}
	}
	assert.Unreachable("vtime: link ring exists without upstream record")
	return 0
}

// checkSlack enforces the sender's lookahead promise.
func (s *Scheduler) checkSlack(dst *Scheduler, t Time, la Time) {
	if t < s.now.Add(Duration(la)) {
		assert.Unreachable("vtime: SendTo %d→%d at %v violates lookahead %v from now %v",
			s.origin, dst.origin, t, Duration(la), s.now)
	}
}

// pushInbox appends to the overflow inbox under its mutex.
func (sh *shardState) pushInbox(e event) {
	sh.inboxMu.Lock()
	sh.inbox = append(sh.inbox, e)
	sh.inboxMu.Unlock()
}

// drainInbox moves every queued cross-shard event into the local heap.
// Must run on the shard's owning worker, after the horizons used for the
// current safe bound were loaded (see the memory-ordering note atop the
// file).
func (s *Scheduler) drainInbox() {
	sh := s.sh
	for i := range sh.upstream {
		r := sh.upstream[i].ring
		for {
			e, ok := r.pop()
			if !ok {
				break
			}
			s.push(e)
		}
	}
	sh.inboxMu.Lock()
	pend := sh.inbox
	sh.inbox = sh.spare[:0]
	sh.inboxMu.Unlock()
	for i := range pend {
		s.push(pend[i])
		pend[i] = event{}
	}
	sh.spare = pend[:0]
}

// safeBound returns the exclusive bound below which this shard may
// execute: min over upstream horizons plus the link lookahead, capped at
// limit. With a default lookahead set the scan is dense (any shard may
// send here); otherwise only declared links constrain, and a shard with
// no upstream links runs free to the cap.
func (s *Scheduler) safeBound(limit Time) Time {
	sh := s.sh
	bound := limit
	if sh.group.defaultLookahead > 0 {
		for _, o := range sh.group.shards {
			if o == s {
				continue
			}
			if b := Time(o.sh.horizon.Load()) + sh.minIn; b < bound {
				bound = b
			}
		}
		return bound
	}
	for i := range sh.upstream {
		up := &sh.upstream[i]
		if b := Time(up.src.sh.horizon.Load()) + up.lookahead; b < bound {
			bound = b
		}
	}
	return bound
}

// publish raises the shard's horizon to h and wakes anyone whose safe
// bound may have grown. Publication happens per exhausted batch, not per
// event, so the lock here is off the hot path.
func (s *Scheduler) publish(h Time) {
	if int64(h) <= s.sh.horizon.Load() {
		return
	}
	s.sh.horizon.Store(int64(h))
	g := s.sh.group
	g.mu.Lock()
	g.version++
	if g.parked > 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// scan runs one safe batch for the shard: load horizons, drain the
// inboxes, execute everything strictly below the safe bound, publish the
// new horizon. It reports whether any event executed. untilX is the
// exclusive run bound (deadline+1, matching RunUntil's inclusive
// semantics).
func (s *Scheduler) scan(untilX Time) bool {
	bound := s.safeBound(untilX)
	s.drainInbox()
	ran := false
	for len(s.events) > 0 && s.events[0].at < bound {
		s.step()
		ran = true
	}
	// After the loop every local event is at ≥ bound and every future
	// arrival is too (it left a sender whose horizon already supports
	// bound), so bound is a sound horizon to promise.
	s.publish(bound)
	return ran
}

// worker services the shards owned by index w (round-robin) until all of
// them reach untilX. The per-shard execution order is the same for any
// workers value because scan's bound logic is; only the interleaving of
// different shards' batches changes, and shards share no state.
func (g *Group) worker(w, workers int, untilX Time) {
	var owned []*Scheduler
	for i := w; i < len(g.shards); i += workers {
		owned = append(owned, g.shards[i])
	}
	for {
		g.mu.Lock()
		ver := g.version
		g.mu.Unlock()
		progress := false
		done := true
		for _, s := range owned {
			if Time(s.sh.horizon.Load()) >= untilX {
				continue
			}
			if s.scan(untilX) {
				progress = true
			}
			if Time(s.sh.horizon.Load()) < untilX {
				done = false
			}
		}
		if done {
			return
		}
		if progress {
			continue
		}
		// Nothing executable with the horizons we saw. Park until some
		// shard publishes (version moves); re-check under the lock to
		// avoid sleeping through a publication that raced the scan.
		g.mu.Lock()
		if workers == 1 && g.version == ver {
			// A lone worker's pass that ran nothing and published no
			// horizon cannot be woken by anyone: a deadlock, impossible
			// with the positive lookaheads Link enforces.
			g.mu.Unlock()
			assert.Unreachable("vtime: no shard can advance toward %v", untilX-1)
		}
		for g.version == ver {
			g.parked++
			g.cond.Wait()
			g.parked--
		}
		g.mu.Unlock()
	}
}

// RunUntil executes every shard's events with timestamps <= deadline on
// up to workers goroutines, then advances all shard clocks to the
// deadline. Events beyond the deadline stay queued. The execution order
// within each shard — and therefore the entire observable run — is
// byte-identical for any workers value.
func (g *Group) RunUntil(deadline Time, workers int) Time {
	untilX := deadline + 1
	if workers < 1 {
		workers = 1
	}
	if workers > len(g.shards) {
		workers = len(g.shards)
	}
	for _, s := range g.shards {
		s.sh.horizon.Store(int64(s.now))
	}
	if workers == 1 {
		g.worker(0, 1, untilX)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				g.worker(w, workers, untilX)
			}(w)
		}
		wg.Wait()
	}
	for _, s := range g.shards {
		if s.now < deadline {
			s.now = deadline
		}
	}
	return deadline
}

// Run drains every shard: repeated bounded windows until no shard holds a
// queued event. It returns the latest shard clock.
func (g *Group) Run(workers int) Time {
	const window = Time(1e9) // 1s of virtual time per pass
	for {
		next, ok := g.NextAt()
		if !ok {
			return g.Now()
		}
		g.RunUntil(next+window, workers)
	}
}

// Pending sums queued events across shards, rings and inboxes. Callers
// must be quiescent (no workers running) — fleet's invariant checks run
// after the drain.
func (g *Group) Pending() int {
	n := 0
	for _, s := range g.shards {
		n += len(s.events)
		for i := range s.sh.upstream {
			n += int(s.sh.upstream[i].ring.pending())
		}
		s.sh.inboxMu.Lock()
		n += len(s.sh.inbox)
		s.sh.inboxMu.Unlock()
	}
	return n
}

// NextAt returns the earliest queued timestamp across shards, rings and
// inboxes; ok is false when the group is empty. Quiescent callers only.
func (g *Group) NextAt() (Time, bool) {
	best, ok := maxTime, false
	for _, s := range g.shards {
		if t, o := s.NextAt(); o && t < best {
			best, ok = t, true
		}
		for i := range s.sh.upstream {
			r := s.sh.upstream[i].ring
			for h := r.head.Load(); h != r.tail.Load(); h++ {
				if e := &r.buf[h%ringCap]; e.at < best {
					best, ok = e.at, true
				}
			}
		}
		s.sh.inboxMu.Lock()
		for i := range s.sh.inbox {
			if s.sh.inbox[i].at < best {
				best, ok = s.sh.inbox[i].at, true
			}
		}
		s.sh.inboxMu.Unlock()
	}
	return best, ok
}

// Sends returns how many of shard i's sends over declared links the
// ring carried and how many found it full and took the overflow inbox.
// Quiescent callers only, like Pending.
func (g *Group) Sends(i int) (ring, overflow uint64) {
	return g.shards[i].sh.ringSends, g.shards[i].sh.overflowSends
}

// Now returns the latest shard clock.
func (g *Group) Now() Time {
	var t Time
	for _, s := range g.shards {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// Processed sums executed events across shards.
func (g *Group) Processed() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.Processed
	}
	return n
}
