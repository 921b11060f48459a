// Package metrics is the deterministic observability layer for the
// mobility reproduction. A Registry belongs to one netsim.Sim and is
// updated single-threaded from inside the event loop, so instruments
// carry no locks and no atomics: an increment is a plain integer add,
// which is what keeps the steady-state forwarding path at zero
// allocations and lets every metric be asserted byte-for-byte in tests
// (the simulation is deterministic, therefore so are its counters).
//
// Every count is stored in exactly one place. The registry stores the
// counts that belong to no single entity; the protocol agents store
// their own and the registry reads them:
//
//   - Static hot families: fixed struct fields updated on the per-packet
//     fast path (IP dispositions, link frames/bytes, encap/decap, the
//     drop-cause vector). These are addressed at compile time — no map
//     lookup, no interning, no allocation.
//   - Named instruments: Counter and Histogram looked up by string name
//     (fleet/handoffs, latency histograms). Callers resolve the
//     instrument once and keep the pointer.
//   - Sources: an agent (home agent, mobile node, regional agent, ...)
//     keeps its counts in its own Stats and registers itself with
//     AddSource. Snapshot and Merge ask every source to Report its
//     counters and levels (binding-table sizes, the registered flag, the
//     mobile node's 4x4 grid) and sum them by name with the registry's
//     own named counters. A level is only ever read from state, so there
//     is no gauge to keep in step with it.
//
// All timing flows through vtime; nothing here reads the wall clock.
package metrics

import "mob4x4/internal/vtime"

// Counter is a monotonically increasing uint64. The zero value is ready
// to use.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Histogram accumulates observations into fixed upper-bound buckets
// (ascending, in the unit the caller chooses — registration RTTs use
// vtime nanoseconds). Observe is a linear scan over a handful of bounds:
// no allocation, no branching on map state. counts has len(bounds)+1
// entries; the last is the overflow bucket.
type Histogram struct {
	bounds []int64
	counts []uint64
	sum    int64
	n      uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
// The bounds slice is retained; callers pass package-level arrays.
func NewHistogram(bounds []int64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// ObserveDuration records a vtime duration in nanoseconds.
func (h *Histogram) ObserveDuration(d vtime.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// DefaultLatencyBuckets are nanosecond bounds spanning one LAN hop to a
// badly-backed-off registration round trip.
var DefaultLatencyBuckets = []int64{
	1e6, 5e6, 10e6, 25e6, 50e6, 100e6, 250e6, 500e6, 1e9, 5e9,
}

// DropCause names why a packet died anywhere in the system — link faults,
// stack dispositions, and injected failures share this one vector so the
// chaos invariants (and the operator) read a single table instead of
// cross-referencing tracer internals. DropFault is deliberately the zero
// value: a netsim fault hook that drops without setting a cause still
// lands in a real bucket.
type DropCause int

const (
	// DropFault is a fault-hook drop with no more specific attribution.
	DropFault DropCause = iota
	// DropGilbertElliott is a loss-burst drop from the two-state channel.
	DropGilbertElliott
	// DropBlackhole is a drop by an injected silent-discard hook.
	DropBlackhole
	// DropDown is a frame offered to an administratively-down segment.
	DropDown
	// DropMTU is an oversized frame rejected by a segment.
	DropMTU
	// DropNoDest is a frame with no attached receiver on the segment.
	DropNoDest
	// DropFilter is a boundary-filter (ingress/egress) rejection.
	DropFilter
	// DropTTL is a forwardable packet whose TTL expired.
	DropTTL
	// DropNoRoute is a packet with no matching route.
	DropNoRoute
	// DropNoARP is a packet abandoned after ARP resolution failed.
	DropNoARP
	// DropMalformed is an unparseable IP header or bad reassembly.
	DropMalformed
	// DropNoProto is a delivered packet with no protocol handler.
	DropNoProto
	// DropFragNeeded is a DF-marked packet larger than the output MTU.
	DropFragNeeded
	// DropARPExpired is a packet shed from the ARP pending queue.
	DropARPExpired
	// DropAuthBadMAC is a registration message rejected because its
	// mobile-home authenticator was missing, malformed, or failed
	// verification (forged or tampered message).
	DropAuthBadMAC
	// DropAuthReplay is a registration rejected because its
	// identification was already accepted inside the replay window
	// (an exact re-emission of a legitimate message).
	DropAuthReplay
	// DropAuthStaleID is a registration rejected because its
	// identification fell behind the replay window entirely (an old
	// message replayed after the window moved on).
	DropAuthStaleID

	// NumDropCauses closes the enum (mob4x4vet:modeswitch sentinel).
	NumDropCauses = 17
)

var dropCauseNames = [NumDropCauses]string{
	"fault", "gilbert_elliott", "blackhole", "down", "mtu", "no_dest",
	"filter", "ttl", "no_route", "no_arp", "malformed", "no_proto",
	"frag_needed", "arp_expired", "auth_bad_mac", "auth_replay",
	"auth_stale_id",
}

// String returns the stable snake_case cause label used in snapshots.
func (c DropCause) String() string {
	if c < 0 || int(c) >= NumDropCauses {
		return "invalid"
	}
	return dropCauseNames[c]
}

// Registry is one simulation's metric store.
type Registry struct {
	// IP dispositions (per-stack totals, summed over all hosts).
	IPSent      Counter
	IPForwarded Counter
	IPDelivered Counter

	// Link layer: frames and on-the-wire bytes actually carried.
	LinkFrames Counter
	LinkBytes  Counter

	// Tunnel plumbing: encapsulations, decapsulations, and forwarding
	// hops taken by packets still inside a tunnel (outer protocol is an
	// encapsulation protocol).
	Encaps         Counter
	Decaps         Counter
	TunnelForwards Counter

	drops [NumDropCauses]Counter

	counters   map[string]*Counter
	histograms map[string]*Histogram
	// levels holds the gauge levels folded in by Merge; a registry that
	// has merged nothing reads its levels from its sources alone.
	levels  map[string]int64
	sources []Source
}

// Source is an entity that stores its own counts and reports them by
// name when its registry is snapshotted or merged.
type Source interface {
	Report(a *Adder)
}

// Adder sums what sources report, by name.
type Adder struct {
	counters map[string]uint64
	levels   map[string]int64
	// joined caches the "name{label}" strings LabeledCounter builds, so
	// each is built once per Snapshot or Merge, not once per source.
	joined map[[2]string]string
}

// Counter adds v to the named count. The name is reported even when v is
// zero: an agent's counters appear as soon as the agent exists.
func (a *Adder) Counter(name string, v uint64) { a.counters[name] += v }

// LabeledCounter adds v to the count named "name{label}", such as
// grid/out_pkts{Out-IE}.
func (a *Adder) LabeledCounter(name, label string, v uint64) {
	k := [2]string{name, label}
	full, ok := a.joined[k]
	if !ok {
		full = name + "{" + label + "}"
		a.joined[k] = full
	}
	a.counters[full] += v
}

// Level adds v to the named gauge level, so the levels of many sources
// under one name (the binding tables of two home agents) sum.
func (a *Adder) Level(name string, v int64) { a.levels[name] += v }

// AddSource registers s to be read by every later Snapshot and Merge. A
// source stays with the registry of the Sim it was built in, even if its
// entity migrates to another shard: registries are read only once the
// shard workers have joined.
func (r *Registry) AddSource(s Source) { r.sources = append(r.sources, s) }

// named sums the registry's named counters, its merged levels and every
// source's report.
func (r *Registry) named() Adder {
	a := Adder{
		counters: make(map[string]uint64),
		levels:   make(map[string]int64),
		joined:   make(map[[2]string]string),
	}
	for _, name := range sortedKeys(r.counters) {
		a.counters[name] += r.counters[name].Value()
	}
	for _, name := range sortedKeys(r.levels) {
		a.levels[name] += r.levels[name]
	}
	for _, s := range r.sources {
		s.Report(&a)
	}
	return a
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Drop counts one packet death for the given cause. Out-of-range causes
// (future enum growth crossing package versions) land in DropFault
// rather than corrupting memory.
func (r *Registry) Drop(c DropCause) {
	if c < 0 || int(c) >= NumDropCauses {
		c = DropFault
	}
	r.drops[c].Inc()
}

// DropN counts n packet deaths at once (batch sheds, e.g. an ARP queue
// expiring with several packets waiting).
func (r *Registry) DropN(c DropCause, n uint64) {
	if c < 0 || int(c) >= NumDropCauses {
		c = DropFault
	}
	r.drops[c].Add(n)
}

// DropCount returns the count for one cause.
func (r *Registry) DropCount(c DropCause) uint64 {
	if c < 0 || int(c) >= NumDropCauses {
		return 0
	}
	return r.drops[c].Value()
}

// Counter returns the named counter, creating it on first use. Callers
// on any hot path must resolve once at setup and keep the pointer.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Later calls ignore bounds (the first registration
// wins), matching the resolve-once discipline.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if h, ok := r.histograms[name]; ok {
		return h
	}
	if r.histograms == nil {
		r.histograms = make(map[string]*Histogram)
	}
	h := NewHistogram(bounds)
	r.histograms[name] = h
	return h
}
