// Package stack implements the per-host IPv4 network stack used by every
// node in the simulated internetwork — end hosts, routers, home agents,
// foreign agents and mobile hosts are all a Host with different
// configuration.
//
// The stack deliberately mirrors the implementation strategy described in
// Section 7 of the paper: the IP route lookup is a single function with a
// pluggable override ("we override the IP route lookup routine and replace
// it with a routine that consults a mobility policy table before the usual
// route table"), and routes may point at a virtual interface whose output
// function encapsulates the packet and resubmits it to IP.
package stack

import (
	"mob4x4/internal/arp"
	"mob4x4/internal/assert"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
	"mob4x4/internal/vtime"
)

// ProtoHandler receives IP packets delivered locally for a protocol
// number. iface is the interface the packet arrived on (nil for
// locally-generated loopback deliveries).
type ProtoHandler func(iface *Iface, pkt ipv4.Packet)

// Stats counts per-host fragmentation work. Packet dispositions (sent,
// forwarded, delivered, dropped by cause) are counted Sim-wide in the
// metrics registry.
type Stats struct {
	FragsCreated uint64
	Reassembled  uint64
}

// Host is a simulated IP node.
type Host struct {
	sim *netsim.Sim
	// metrics caches sim.Metrics so hot-path increments are one pointer
	// chase, not two.
	metrics *metrics.Registry
	name    string

	ifaces []*Iface

	routes RouteTable
	// RouteOverride, when non-nil, is consulted before the route table
	// for every locally-originated packet. src is the source address the
	// packet leaves with (the override may pin it even when it declines
	// the packet); returning ok=false falls through to the normal table.
	// This is the paper's mobility policy hook; package mobileip installs
	// it.
	RouteOverride func(pkt ipv4.Packet) (rt Route, src ipv4.Addr, ok bool)

	// Forwarding enables IP forwarding (routers).
	Forwarding bool

	// Filter, when non-nil, is the boundary filtering policy (Section
	// 3.1 of the paper): source-address checks at domain boundaries.
	Filter *FilterPolicy

	handlers *smallMap[uint8, ProtoHandler]

	// claims is the set of additional local addresses: a mobile host
	// claims its home address wherever it is; a home agent claims the
	// addresses of mobile hosts it serves (paired with proxy ARP).
	claims *smallMap[ipv4.Addr, ProtoOverride]

	socks     *smallMap[uint16, *UDPSocket]
	ephemeral uint16
	nextIPID  uint16 // beside ephemeral so the two share one word with portProbe
	// portProbe is SourceForDestinationPort's scratch transport header
	// (dst port at [2:4]). The probe packet goes to the route override
	// by value, so it stays on the stack, but a local array its payload
	// pointed at would escape through the call; a field does not.
	portProbe [4]byte

	reasm      *ipv4.Reassembler // built on the first fragment
	reasmTimer *vtime.Timer

	// FragNeeded, when non-nil, is called when a DF-marked packet
	// exceeds the output MTU (hook for ICMP "fragmentation needed"
	// generation on routers).
	FragNeeded func(ifc *Iface, pkt ipv4.Packet, mtu int)

	// TTLExceeded, when non-nil, is called when a forwarded packet's
	// TTL expires at this host (hook for ICMP "time exceeded"
	// generation — what traceroute listens for).
	TTLExceeded func(in *Iface, pkt ipv4.Packet)

	// MulticastTap, when non-nil, sees every locally-delivered multicast
	// packet first; returning true consumes it (a home agent's group
	// relay uses this).
	MulticastTap func(ifc *Iface, pkt ipv4.Packet) bool

	// DeliveryHook, when non-nil, observes every locally-delivered
	// packet after stats and trace accounting, before demultiplexing.
	// ifc is the arrival interface; nil marks loopback/resubmitted
	// deliveries (a decapsulated inner packet re-entering IP), which
	// lets the mobility code classify only genuine over-the-wire
	// arrivals into the 4x4 In-mode grid. The hook takes the packet by
	// value: a pointer would make the delivery path's packet escape to
	// the heap and break the zero-allocation forwarding pins.
	DeliveryHook func(ifc *Iface, pkt ipv4.Packet)

	// ARPTimeout and ARPRetries control address resolution patience.
	ARPTimeout vtime.Duration
	ARPRetries int
	// ARPCacheTTL bounds cache entry lifetime (0 = no expiry).
	ARPCacheTTL vtime.Duration
	// ARPQueueLimit bounds how many packets may wait per nexthop while
	// ARP resolves; the oldest is shed (drop/arp_expired) when a new
	// packet arrives at a full queue. 0 means unbounded.
	ARPQueueLimit int

	Stats Stats
}

// ProtoOverride lets a claimed address redirect all packets (any protocol)
// to a handler instead of the normal protocol demux. A nil ProtoOverride
// means "deliver normally" (the usual case for a mobile host's own home
// address).
type ProtoOverride func(iface *Iface, pkt ipv4.Packet)

// ReassemblyTimeout is how long fragments wait for their siblings.
const ReassemblyTimeout = 30 * 1e9 // 30s in nanoseconds (vtime.Duration)

// NewHost creates a host with no interfaces. The handler, claim and socket
// tables and the reassembler are allocated lazily at their write sites:
// large grid scenarios build hundreds of hosts, most of which never
// register handlers or claims, and almost none of which see a fragment.
func NewHost(sim *netsim.Sim, name string) *Host {
	h := &Host{
		sim:         sim,
		metrics:     sim.Metrics,
		name:        name,
		ephemeral:   49152,
		ARPTimeout:  vtime.Duration(1e9), // 1s
		ARPRetries:  3,
		ARPCacheTTL: vtime.Duration(300e9), // 5min, well above most runs
		// High enough that no legitimate burst (a fragmented burst can
		// queue hundreds of fragments during one ARP round-trip) ever
		// hits it; low enough that an unresolvable nexthop cannot pin
		// memory without bound.
		ARPQueueLimit: 2048,
	}
	sim.SetARPResolvers(newSegARP)
	return h
}

// Name returns the host name (used in traces).
func (h *Host) Name() string { return h.name }

// Sim returns the owning simulation.
func (h *Host) Sim() *netsim.Sim { return h.sim }

// Sched returns the simulation scheduler (timer convenience).
func (h *Host) Sched() *vtime.Scheduler { return h.sim.Sched }

// Routes returns the host's route table.
func (h *Host) Routes() *RouteTable { return &h.routes }

// Iface is a configured network interface: a NIC plus IP configuration and
// per-interface ARP state.
type Iface struct {
	host   *Host
	nic    *netsim.NIC
	addr   ipv4.Addr
	prefix ipv4.Prefix

	// cache and proxy live inline: an Iface always has exactly one of
	// each, and separate heap objects per interface were a measurable
	// share of scenario construction.
	cache arp.Cache
	proxy arp.Proxy

	// Outside marks the interface as facing out of the administrative
	// domain; the filter policy distinguishes inside from outside.
	Outside bool

	// pending lists the resolutions in flight and freeJobs the finished
	// ones kept for reuse (see resolveJob).
	pending, freeJobs *resolveJob
	// sameAddr links the members of a segment's ARP index that hold the
	// same address (see arpIndex).
	sameAddr *Iface

	// groups is the set of multicast groups joined on this interface.
	groups map[ipv4.Addr]bool
}

// AddIface creates an interface named name with the given address and
// on-link prefix, attached to seg (may be nil: created detached). A
// connected route for the prefix is installed automatically when the
// prefix is non-zero.
func (h *Host) AddIface(name string, seg *netsim.Segment, addr ipv4.Addr, prefix ipv4.Prefix) *Iface {
	nic := h.sim.NewNIC(h.name + ":" + name)
	ifc := &Iface{
		host:   h,
		nic:    nic,
		addr:   addr,
		prefix: prefix,
		// cache, proxy, and pending all initialize lazily on first use.
	}
	nic.SetReceiver(ifc.receiveFrame)
	nic.SetOwner(ifc)
	if seg != nil {
		nic.Attach(seg)
	}
	ifc.join()
	h.ifaces = append(h.ifaces, ifc)
	if prefix.Bits > 0 {
		h.routes.Add(Route{Prefix: prefix, Iface: ifc, Metric: 0})
	}
	return ifc
}

// Ifaces returns the host's interfaces in creation order.
func (h *Host) Ifaces() []*Iface { return h.ifaces }

// IfaceByName returns the interface whose NIC name suffix matches name.
func (h *Host) IfaceByName(name string) *Iface {
	for _, ifc := range h.ifaces {
		if ifc.nic.Name() == h.name+":"+name {
			return ifc
		}
	}
	return nil
}

// Host returns the owning host.
func (i *Iface) Host() *Host { return i.host }

// NIC returns the underlying simulated NIC.
func (i *Iface) NIC() *netsim.NIC { return i.nic }

// Addr returns the interface's IP address.
func (i *Iface) Addr() ipv4.Addr { return i.addr }

// Prefix returns the interface's on-link prefix.
func (i *Iface) Prefix() ipv4.Prefix { return i.prefix }

// AddProxy starts answering ARP for ip on behalf of another host (home
// agents do this for their mobile hosts while they are away).
func (i *Iface) AddProxy(ip ipv4.Addr) {
	i.proxy.Add(ip)
	i.watch()
}

// RemoveProxy stops answering ARP for ip.
func (i *Iface) RemoveProxy(ip ipv4.Addr) {
	i.proxy.Remove(ip)
	i.watch()
}

// SetAddr reconfigures the interface address and on-link prefix,
// replacing the old connected route. This is the "obtained a new care-of
// address" primitive.
func (i *Iface) SetAddr(addr ipv4.Addr, prefix ipv4.Prefix) {
	if i.prefix.Bits > 0 {
		i.host.routes.RemoveConnected(i)
	}
	i.leave()
	i.addr = addr
	i.prefix = prefix
	i.join()
	if prefix.Bits > 0 {
		i.host.routes.Add(Route{Prefix: prefix, Iface: i, Metric: 0})
	}
}

// Attach moves the interface onto a segment (mobility primitive). The ARP
// cache is flushed: neighbours from the old segment are meaningless.
func (i *Iface) Attach(seg *netsim.Segment) {
	i.leave()
	i.nic.Attach(seg)
	i.join()
	if tr := i.host.sim.Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventMove, Time: i.host.sim.Now(), Where: i.host.name,
			Detail: "iface " + i.nic.Name() + " attached to " + segName(seg),
		})
	}
}

// Detach disconnects the interface.
func (i *Iface) Detach() {
	i.leave()
	i.nic.Detach()
	i.join()
	if tr := i.host.sim.Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventMove, Time: i.host.sim.Now(), Where: i.host.name,
			Detail: "iface " + i.nic.Name() + " detached",
		})
	}
}

func segName(seg *netsim.Segment) string {
	if seg == nil {
		return "(none)"
	}
	return seg.Name()
}

// Handle registers a protocol handler (ICMP, TCP, tunnel decapsulators...).
func (h *Host) Handle(proto uint8, fn ProtoHandler) {
	tableFor(&h.handlers).set(proto, fn)
}

// Claim adds addr to the host's set of local addresses. If override is
// non-nil, every packet to addr is diverted to it (home-agent capture);
// if nil, packets to addr are demultiplexed normally (mobile host's own
// home address).
func (h *Host) Claim(addr ipv4.Addr, override ProtoOverride) {
	tableFor(&h.claims).set(addr, override)
}

// Unclaim removes a claimed address.
func (h *Host) Unclaim(addr ipv4.Addr) {
	h.claims.del(addr)
}

// Claimed reports whether addr is claimed (including interface addresses).
func (h *Host) Claimed(addr ipv4.Addr) bool {
	if _, ok := h.claims.get(addr); ok {
		return true
	}
	return h.addrLocal(addr)
}

func (h *Host) addrLocal(addr ipv4.Addr) bool {
	for _, ifc := range h.ifaces {
		if ifc.addr == addr {
			return true
		}
	}
	return false
}

// FirstAddr returns the address of the first configured interface, or the
// zero address.
func (h *Host) FirstAddr() ipv4.Addr {
	for _, ifc := range h.ifaces {
		if !ifc.addr.IsZero() {
			return ifc.addr
		}
	}
	return ipv4.Zero
}

// NextIPID returns a fresh IP identification value for fragmentation.
func (h *Host) NextIPID() uint16 {
	h.nextIPID++
	return h.nextIPID
}

// Quiesce cancels every timer the stack itself holds — the reassembly
// timer (in-progress fragment sets are discarded) and any in-flight ARP
// resolutions (their queued packets are shed and accounted as
// ARP-expired). A pending timer is an event owned by the host's current
// scheduler, so a host must be quiesced before it can migrate to another
// region shard. Timers owned by layers above the stack (registration,
// renewal, probing, transports) are those layers' to stop.
func (h *Host) Quiesce() {
	h.reasmTimer.Stop()
	if h.reasm != nil {
		h.reasm.Expire()
	}
	for _, ifc := range h.ifaces {
		for ifc.pending != nil {
			job := ifc.pending
			ifc.pending = job.next
			job.timer.Stop()
			h.metrics.DropN(metrics.DropARPExpired, uint64(len(job.queue)))
			putBufs(job.queue)
			ifc.freeJob(job)
		}
		ifc.watch()
	}
}

// Rehome re-parents a quiesced host onto another region Sim: migration
// moves a mobile node between shards, and everything the host touches
// from then on — scheduler, tracer, metric registry, NIC bookkeeping —
// must belong to the destination region. Every interface must be detached
// and the host quiesced (no stack-held timers pending); violations are
// logic errors, not recoverable conditions.
func (h *Host) Rehome(sim *netsim.Sim) {
	if h.reasmTimer.Pending() {
		assert.Unreachable("stack: Rehome of %s with a pending reassembly timer (call Quiesce first)", h.name)
	}
	for _, ifc := range h.ifaces {
		if ifc.nic.Attached() {
			assert.Unreachable("stack: Rehome of %s while iface %s is attached", h.name, ifc.nic.Name())
		}
		if ifc.pending != nil {
			assert.Unreachable("stack: Rehome of %s with in-flight ARP resolutions (call Quiesce first)", h.name)
		}
		ifc.nic.Rehome(sim)
		ifc.cache.Flush()
	}
	h.sim = sim
	h.metrics = sim.Metrics
	sim.SetARPResolvers(newSegARP)
}
