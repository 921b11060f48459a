package mobileip

import (
	"slices"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/vtime"
)

// expiryGranularity is the coarseness of binding-expiry rounding:
// a binding expires at most this much later than its exact lifetime.
// Soft-state lifetimes are tens of seconds and mobile nodes renew at 80%
// of the lifetime, so sub-second expiry precision buys nothing — but one
// scheduler timer per binding costs a heap entry and a closure each, and
// at fleet scale (thousands of bindings renewing every lifetime) the old
// Stop-then-After per renewal churned the 4-ary heap for no benefit.
const expiryGranularity = int64(1e9) // 1s

// wheelEntry defers the expiry of one binding generation. Entries are
// never removed early: renewal advances the binding's gen, and the stale
// entry is skipped when its slot fires (lazy deletion).
type wheelEntry struct {
	home ipv4.Addr
	gen  uint32
}

// expiryWheel is a coarse timer wheel for binding expiries. All bindings
// whose (rounded-up) expiry lands in the same granularity slot share one
// scheduler event; the wheel keeps exactly one vtime.Timer armed, for
// the earliest non-empty slot. Registering or renewing a binding is an
// append to a slot bucket — no heap churn, no per-binding timer — which
// is what makes thousand-node renewal storms cheap.
//
// Determinism: slot buckets fire in append order, the next armed slot is
// the minimum key over the slot map (order-independent), and entry
// staleness is a pure function of the binding table — no map-iteration
// order leaks into behavior.
type expiryWheel struct {
	slots map[int64][]wheelEntry
	// spare recycles fired slot buckets so steady-state renewals do not
	// allocate a fresh bucket per slot.
	spare [][]wheelEntry
	timer *vtime.Timer
	armed int64 // slot the timer is armed for; armedNone when idle
}

const armedNone = int64(-1)

func newExpiryWheel() *expiryWheel {
	return &expiryWheel{slots: make(map[int64][]wheelEntry), armed: armedNone}
}

// slotOf rounds an instant up to its slot: the slot boundary is the
// first instant at or after t, so entries always fire at or after their
// exact expiry (never early).
func (w *expiryWheel) slotOf(t vtime.Time) int64 {
	return (int64(t) + expiryGranularity - 1) / expiryGranularity
}

// schedule files an expiry for (home, gen) at instant at. fire is the
// home agent's sweep callback; it is the same function for every call,
// so the single timer can be re-armed freely.
func (w *expiryWheel) schedule(sched *vtime.Scheduler, at vtime.Time, home ipv4.Addr, gen uint32, fire func()) {
	slot := w.slotOf(at)
	bucket, ok := w.slots[slot]
	if !ok && len(w.spare) > 0 {
		bucket = w.spare[len(w.spare)-1][:0]
		w.spare = w.spare[:len(w.spare)-1]
	}
	w.slots[slot] = append(bucket, wheelEntry{home: home, gen: gen})
	if w.armed == armedNone || slot < w.armed {
		w.arm(sched, slot, fire)
	}
}

// arm points the single timer at slot's boundary instant.
func (w *expiryWheel) arm(sched *vtime.Scheduler, slot int64, fire func()) {
	w.armed = slot
	d := vtime.Time(slot * expiryGranularity).Sub(sched.Now())
	if w.timer == nil {
		w.timer = vtime.NewTimer(fire)
	}
	w.timer.Reset(sched, d)
}

// take removes and returns the bucket for the armed slot (nil when the
// wheel is idle) and disarms. The caller processes the entries, then
// calls rearm.
func (w *expiryWheel) take() []wheelEntry {
	if w.armed == armedNone {
		return nil
	}
	bucket := w.slots[w.armed]
	delete(w.slots, w.armed)
	w.armed = armedNone
	return bucket
}

// recycle returns a processed bucket to the spare pool.
func (w *expiryWheel) recycle(bucket []wheelEntry) {
	if cap(bucket) > 0 {
		w.spare = append(w.spare, bucket[:0])
	}
}

// rearm points the timer at the earliest remaining slot, if any. When
// every slot is empty the timer stays unarmed — a drained agent holds
// zero pending scheduler events, the invariant the chaos and fleet
// drains assert.
func (w *expiryWheel) rearm(sched *vtime.Scheduler, fire func()) {
	min := armedNone
	//mob4x4vet:allow mapiter min over keys is a commutative reduction; only the scalar escapes
	for slot := range w.slots {
		if min == armedNone || slot < min {
			min = slot
		}
	}
	if min != armedNone {
		w.arm(sched, min, fire)
	}
}

// reset disarms the timer and drops every pending entry (crash: the
// bindings the entries referred to are gone, and the binding table's
// generations restart, so stale entries must not survive).
func (w *expiryWheel) reset() {
	w.timer.Stop()
	// Drain in slot order so the spare pool is rebuilt identically every
	// run — recycle order decides which capacities later slots inherit.
	slots := make([]int64, 0, len(w.slots))
	for slot := range w.slots {
		slots = append(slots, slot)
	}
	slices.Sort(slots)
	for _, slot := range slots {
		w.recycle(w.slots[slot])
		delete(w.slots, slot)
	}
	w.armed = armedNone
}
