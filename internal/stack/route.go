package stack

import (
	"fmt"
	"sort"
	"strings"

	"mob4x4/internal/ipv4"
)

// Route is one routing table entry. Exactly one of two behaviors applies
// on selection:
//
//   - Output == nil: the packet leaves via Iface, link-addressed to NextHop
//     (or to the destination itself when NextHop is zero — an on-link
//     route).
//   - Output != nil: the packet is handed to Output, a virtual interface.
//     Package mobileip uses this for its encapsulating tunnel interface,
//     exactly as the paper describes ("the routine directs IP to send the
//     packet to our virtual interface, which encapsulates the packet and
//     resubmits it to IP").
type Route struct {
	Prefix  ipv4.Prefix
	NextHop ipv4.Addr // zero = on-link
	Iface   *Iface
	Output  func(pkt ipv4.Packet) // virtual interface hook
	Metric  int
	// Name labels virtual routes in debug output.
	Name string
}

// IsVirtual reports whether the route points at a virtual interface.
func (r Route) IsVirtual() bool { return r.Output != nil }

func (r Route) String() string {
	dev := "(none)"
	if r.Iface != nil {
		dev = r.Iface.nic.Name()
	}
	switch {
	case r.IsVirtual():
		return fmt.Sprintf("%s via virtual(%s) metric %d", r.Prefix, r.Name, r.Metric)
	case r.NextHop.IsZero():
		return fmt.Sprintf("%s dev %s metric %d", r.Prefix, dev, r.Metric)
	default:
		return fmt.Sprintf("%s via %s dev %s metric %d", r.Prefix, r.NextHop, dev, r.Metric)
	}
}

// RouteTable is a longest-prefix-match routing table with metric
// tie-breaking. Routes are kept in lookup order — longest prefix first,
// then lowest metric, then insertion order — so the first route whose
// prefix contains a destination is the best one. Beside them, in step,
// each route's prefix is kept as a masked (addr, mask) pair, and Lookup
// scans those 8-byte keys rather than the 64-byte routes. It keeps no
// per-destination cache: the large tables of backbone routers (~70
// routes) are where such a cache misses most, and every host would pay
// for its slots. BenchmarkRouteLookup measures lookup cost.
type RouteTable struct {
	routes []Route
	keys   []routeKey // keys[i] is routes[i].Prefix, masked
}

// routeKey is a prefix as Lookup tests it: dst&mask == addr.
type routeKey struct{ addr, mask uint32 }

// NewRouteTable returns an empty table.
func NewRouteTable() *RouteTable { return &RouteTable{} }

// Add inserts a route at its place in lookup order, after any route with
// the same prefix length and metric.
func (t *RouteTable) Add(r Route) {
	if t.routes == nil {
		// Topologies install a few routes per host right after creation;
		// most hosts never hold more than four.
		t.routes, t.keys = make([]Route, 0, 4), make([]routeKey, 0, 4)
	}
	i := sort.Search(len(t.routes), func(i int) bool {
		e := &t.routes[i]
		return e.Prefix.Bits < r.Prefix.Bits || e.Prefix.Bits == r.Prefix.Bits && e.Metric > r.Metric
	})
	// Append and shift: slices.Insert's general path made a router's
	// table set-up half again as slow.
	t.routes = append(t.routes, Route{})
	copy(t.routes[i+1:], t.routes[i:])
	t.routes[i] = r
	m := r.Prefix.Mask()
	t.keys = append(t.keys, routeKey{})
	copy(t.keys[i+1:], t.keys[i:])
	t.keys[i] = routeKey{addr: r.Prefix.Addr.Uint32() & m, mask: m}
}

// AddDefault installs a default route (0.0.0.0/0) via nexthop on ifc.
func (t *RouteTable) AddDefault(ifc *Iface, nexthop ipv4.Addr) {
	t.Add(Route{Prefix: ipv4.Prefix{}, NextHop: nexthop, Iface: ifc, Metric: 100})
}

// Remove deletes all routes exactly matching prefix.
func (t *RouteTable) Remove(prefix ipv4.Prefix) {
	t.removeIf(func(r *Route) bool { return r.Prefix == prefix })
}

// RemoveConnected deletes the connected (on-link, metric-0) routes bound
// to the given interface.
func (t *RouteTable) RemoveConnected(ifc *Iface) {
	t.removeIf(func(r *Route) bool {
		return r.Iface == ifc && r.NextHop.IsZero() && !r.IsVirtual() && r.Metric == 0
	})
}

// RemoveVirtual deletes virtual routes with the given name.
func (t *RouteTable) RemoveVirtual(name string) {
	t.removeIf(func(r *Route) bool { return r.IsVirtual() && r.Name == name })
}

// removeIf deletes the routes drop selects, compacting both slices in
// place; the survivors keep their order.
func (t *RouteTable) removeIf(drop func(*Route) bool) {
	n := 0
	for i := range t.routes {
		if drop(&t.routes[i]) {
			continue
		}
		if n < i { // most calls remove nothing: skip the 64-byte self-copies
			t.routes[n], t.keys[n] = t.routes[i], t.keys[i]
		}
		n++
	}
	clear(t.routes[n:]) // drop the removed routes' Iface and Output references
	t.routes, t.keys = t.routes[:n], t.keys[:n]
}

// Clear removes every route.
func (t *RouteTable) Clear() { *t = RouteTable{} }

// Len returns the number of routes.
func (t *RouteTable) Len() int { return len(t.routes) }

// Lookup returns the best route for dst: longest prefix wins, then lowest
// metric, then insertion order.
func (t *RouteTable) Lookup(dst ipv4.Addr) (Route, bool) {
	d := dst.Uint32()
	for i, k := range t.keys {
		if d&k.mask == k.addr {
			return t.routes[i], true
		}
	}
	return Route{}, false
}

// Dump renders the table for debugging, most-specific first.
func (t *RouteTable) Dump() string {
	var sb strings.Builder
	for _, r := range t.routes {
		fmt.Fprintln(&sb, r)
	}
	return sb.String()
}
