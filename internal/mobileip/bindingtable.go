package mobileip

import (
	"mob4x4/internal/ipv4"
	"mob4x4/internal/vtime"
)

// binding is one mobile host's registration. Bindings live in the
// bindingTable's dense slot array; pointers into it stay valid only
// until the next insert (growth may move the backing array), so hot
// paths look a binding up, use it, and let go — exactly the pattern the
// single-threaded simulator enforces anyway.
type binding struct {
	home   ipv4.Addr
	careOf ipv4.Addr
	live   bool
	// gen advances on every (re-)registration and deregistration of this
	// slot. The expiry wheel stamps entries with the gen they were
	// scheduled under; a mismatch at fire time means the entry is stale
	// (renewed or slot reused) and is skipped. See expiryWheel.
	gen       uint32
	expiresAt vtime.Time
	lastID    uint64
	// noticed tracks which correspondents already got a binding notice
	// for this binding generation (simple rate limit: one per source per
	// registration). The map is cleared — not reallocated — on renewal.
	noticed map[ipv4.Addr]bool
}

// bindingTable is the home agent's registration store, built for
// fleet-scale populations: a dense slot slice (cache-friendly iteration,
// one allocation amortized over doublings instead of one per binding)
// with a home-address index and a freelist of vacated slots. Lookup is
// one map probe; insert and remove are O(1); iteration is a linear walk
// over the slots in deterministic slot order.
type bindingTable struct {
	slots []binding
	index map[ipv4.Addr]int32
	free  []int32
	live  int
}

func newBindingTable() *bindingTable {
	return &bindingTable{index: make(map[ipv4.Addr]int32)}
}

// get returns the live binding for home, or nil.
func (t *bindingTable) get(home ipv4.Addr) *binding {
	i, ok := t.index[home]
	if !ok {
		return nil
	}
	return &t.slots[i]
}

// getOrCreate returns the binding for home, creating a slot (reusing a
// vacated one when available) if none exists.
func (t *bindingTable) getOrCreate(home ipv4.Addr) (b *binding, created bool) {
	if i, ok := t.index[home]; ok {
		return &t.slots[i], false
	}
	var i int32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.slots = append(t.slots, binding{})
		i = int32(len(t.slots) - 1)
	}
	t.index[home] = i
	b = &t.slots[i]
	// Slot reuse keeps gen and the noticed map: gen must keep advancing
	// so stale wheel entries from the previous occupant never match, and
	// the map is cleared by the caller on registration.
	gen := b.gen
	noticed := b.noticed
	*b = binding{home: home, live: true, gen: gen + 1, noticed: noticed}
	t.live++
	return b, true
}

// remove vacates home's slot. The slot's gen survives (and advances) so
// wheel entries scheduled under the old occupancy stay stale forever.
func (t *bindingTable) remove(home ipv4.Addr) bool {
	i, ok := t.index[home]
	if !ok {
		return false
	}
	b := &t.slots[i]
	b.live = false
	b.gen++
	delete(t.index, home)
	t.free = append(t.free, i)
	t.live--
	return true
}

// len returns the number of live bindings.
func (t *bindingTable) len() int { return t.live }

// forEach visits every live binding in slot order. Slot order is a pure
// function of the registration/deregistration history, so per-seed runs
// iterate identically — the determinism the trace and metrics tests
// rely on (the old map-keyed table had to sort addresses to get this).
func (t *bindingTable) forEach(fn func(*binding)) {
	for i := range t.slots {
		if t.slots[i].live {
			fn(&t.slots[i])
		}
	}
}

// reset drops every binding and the freelist but keeps the allocated
// capacity (crash teardown on a busy agent is followed by re-learning a
// similarly sized table). Generations restart from zero, so reset is
// only valid together with an expiryWheel reset — the home agent's
// Crash path does both.
func (t *bindingTable) reset() {
	t.slots = t.slots[:0]
	t.free = t.free[:0]
	clear(t.index)
	t.live = 0
}
