// Package netsim provides the simulated link layer and the simulation
// container. A Sim owns a deterministic virtual-time scheduler, a packet
// tracer and a set of Segments — broadcast link-layer domains analogous to
// Ethernet segments. Hosts and routers (package stack) attach NICs to
// segments; everything above the link layer is built on top of this
// package.
//
// The original paper ran on real Ethernets, PPP links and a modified Linux
// kernel. This package is the substitution: a deterministic in-process
// topology with per-segment latency, MTU and bandwidth (loss and other
// impairments come from fault hooks), which preserves the
// properties the paper's arguments depend on (who can hear whom, how many
// hops a path takes, where filters sit, and what the MTU does to
// encapsulated packets).
package netsim

import (
	"fmt"
	"math/rand/v2"

	"mob4x4/internal/assert"
	"mob4x4/internal/metrics"
	"mob4x4/internal/vtime"
)

// MAC is a simulated link-layer address.
type MAC uint64

// BroadcastMAC is the all-ones link-layer broadcast address.
const BroadcastMAC MAC = 0xffffffffffff

func (m MAC) String() string {
	if m == BroadcastMAC {
		return "ff:ff:ff:ff:ff:ff"
	}
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(m>>40), byte(m>>32), byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
}

// EtherType values used on simulated segments.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// Frame is a link-layer frame. TraceID is simulation metadata (a capture
// annotation, not wire content): it identifies the logical packet across
// hops and through encapsulation so the tracer can reconstruct paths.
type Frame struct {
	Src     MAC
	Dst     MAC
	Type    uint16
	Payload []byte
	TraceID uint64
	// Buf, when non-nil, is the pooled buffer backing Payload. The link
	// layer owns it from NIC.Send onward and returns it to the pool once
	// the frame is dropped or every receiver callback has returned; see
	// the ownership contract on Buf.
	Buf *Buf
}

// FrameHeaderLen approximates an Ethernet header (dst+src+type) for size
// accounting; the simulation does not serialize frames to bytes.
const FrameHeaderLen = 14

// Sim is the simulation container: scheduler, tracer, and allocation of
// unique identifiers. Create one per experiment.
type Sim struct {
	Sched *vtime.Scheduler
	Trace *Tracer
	// Metrics is the simulation-wide metric registry. Everything above
	// the link layer (stack, mobileip, faults) funnels counts here; like
	// the scheduler it is per-Sim state, updated single-threaded from
	// inside the event loop, so parallel experiment workers never share
	// an instrument.
	Metrics  *metrics.Registry
	nextMAC  MAC
	segments []*Segment
	// cluster, when non-nil, is the shard cluster this Sim belongs to;
	// MAC allocation then draws from the cluster-wide counter so link
	// addresses stay unique across all region Sims of one run.
	cluster *Cluster
	// newARP, when non-nil, builds a segment's ARPResolver the first time
	// a broadcast ARP frame lands on it. The network stack installs it.
	newARP func(*Segment) ARPResolver
}

// NewSim returns a fresh simulation with the given RNG seed.
func NewSim(seed int64) *Sim {
	return &Sim{
		Sched:   vtime.NewScheduler(seed),
		Trace:   NewTracer(),
		Metrics: metrics.NewRegistry(),
		nextMAC: 0x0200_0000_0001, // locally administered range
	}
}

// Cluster groups the per-region Sims of one sharded run: each region owns
// its own scheduler (a shard of a vtime.Group), tracer and metric
// registry, while MAC addresses come from one shared counter — a MAC
// identifies a NIC across the whole simulated internetwork, so two
// regions must never mint the same one. Cluster construction and all
// allocation through it happen during the single-threaded build phase.
type Cluster struct {
	nextMAC MAC
	sims    []*Sim
}

// NewCluster returns an empty shard cluster.
func NewCluster() *Cluster { return &Cluster{nextMAC: 0x0200_0000_0001} }

// NewSim creates a region simulation driven by the given scheduler —
// one shard of a vtime.Group. The region owns its tracer and metric
// registry (merged at measurement time), but draws MACs from the
// cluster-wide counter.
func (c *Cluster) NewSim(sched *vtime.Scheduler) *Sim {
	s := &Sim{
		Sched:   sched,
		Trace:   NewTracer(),
		Metrics: metrics.NewRegistry(),
		cluster: c,
	}
	c.sims = append(c.sims, s)
	return s
}

// Sims returns the cluster's member simulations in creation order.
func (c *Cluster) Sims() []*Sim { return c.sims }

// Now returns the current virtual time.
func (s *Sim) Now() vtime.Time { return s.Sched.Now() }

// SetARPResolvers installs the constructor of the per-segment
// ARPResolver (see there); nil keeps every broadcast ARP frame on the
// plain per-NIC fan-out. Install it during the single-threaded build
// phase.
func (s *Sim) SetARPResolvers(fn func(*Segment) ARPResolver) { s.newARP = fn }

// AllocMAC returns a fresh unique MAC address (cluster-wide unique when
// the Sim belongs to a Cluster).
func (s *Sim) AllocMAC() MAC {
	if s.cluster != nil {
		m := s.cluster.nextMAC
		s.cluster.nextMAC++
		return m
	}
	m := s.nextMAC
	s.nextMAC++
	return m
}

// Segments returns the segments created in this simulation, in creation
// order.
func (s *Sim) Segments() []*Segment { return s.segments }

// SegmentByName returns the segment with the given name, or nil. Fault
// schedules use it to address links by the names the topology builder
// assigned (e.g. "p2p-visitGWA-bb2").
func (s *Sim) SegmentByName(name string) *Segment {
	for _, seg := range s.segments {
		if seg.name == name {
			return seg
		}
	}
	return nil
}

// SegmentOpts configures a Segment.
type SegmentOpts struct {
	// Latency is the one-way propagation delay for every frame on the
	// segment. Zero is allowed (frames still go through the scheduler, so
	// ordering stays deterministic).
	Latency vtime.Duration
	// MTU is the maximum IP packet size (link payload) the segment
	// carries. Frames with larger payloads are dropped and counted.
	// Zero means DefaultMTU.
	MTU int
	// BandwidthBps, when non-zero, models transmission time: each frame
	// occupies the medium for size*8/bandwidth, and frames queue behind
	// one another (a busy segment delays later senders). Zero means
	// infinite bandwidth — frames experience latency only. The paper's
	// §2 observes that a mobile host's two path directions "may be
	// significantly different" in both latency and bandwidth; this knob
	// reproduces that.
	BandwidthBps int64
}

// DefaultMTU is the Ethernet-like default segment MTU.
const DefaultMTU = 1500

// Segment is a broadcast link-layer domain. Every attached NIC receives
// frames addressed to its MAC or to the broadcast MAC.
type Segment struct {
	sim  *Sim
	name string
	opts SegmentOpts
	nics []*NIC
	// byMAC maps unicast destinations directly to their NIC. It is built
	// lazily once the segment outgrows SegIndexMin attachments: most
	// simulated segments hold a handful of NICs, where a linear scan of
	// nics beats a map and costs no allocation. promisc counts attached
	// promiscuous NICs; when zero, unicast frames skip the receiver scan
	// entirely.
	byMAC   map[MAC]*NIC
	promisc int
	// busyUntil is when the medium finishes transmitting the last queued
	// frame (bandwidth modeling).
	busyUntil vtime.Time
	// down administratively disables the segment: every frame offered
	// while down is dropped and counted. Fault schedules flip it to model
	// link flaps and partition windows.
	down bool
	// rng is the segment's own randomness stream (the corruption-bit
	// draw), derived from (seed, index) at construction.
	// Owning a stream — instead of sharing the scheduler's — keeps each
	// segment's draw sequence independent of every other entity's, so a
	// sharded engine can replay any segment in isolation. Every segment
	// mints one, corrupting or not: minting order fixes the index of
	// every stream minted after it.
	rng *rand.Rand
	// remote, when non-nil, marks this Segment as one half of a split
	// (cross-shard) point-to-point link: frames that survive this half's
	// drop/impairment checks are delivered on the peer half, which lives
	// in another region Sim, via the shard group's lookahead channel
	// rather than the local scheduler. See SplitPair.
	remote *remoteEnd
	// arp delivers the broadcast ARP frames that land on the segment. It
	// is built by the Sim's ARPResolver constructor when the first one
	// lands, so segments that never carry broadcast ARP never get one.
	arp ARPResolver
	// fault, when non-nil, is consulted once per frame that survived the
	// down and MTU checks; the returned Impairment can drop,
	// duplicate, corrupt or delay the frame. Nil (the default) costs one
	// predictable branch on the fast path. The frame is passed by value
	// (a pointer would make every frame escape to the heap, hook or no
	// hook); hooks read it, the segment applies the verdict.
	fault func(Frame) Impairment
	// Stats
	Delivered    uint64
	BytesCarried uint64
}

// NewSegment creates a broadcast segment.
func (s *Sim) NewSegment(name string, opts SegmentOpts) *Segment {
	if opts.MTU == 0 {
		opts.MTU = DefaultMTU
	}
	seg := &Segment{sim: s, name: name, opts: opts, rng: s.Sched.NewStream()}
	s.segments = append(s.segments, seg)
	return seg
}

// remoteEnd is the cross-shard side of a split Segment.
type remoteEnd struct {
	peer  *Segment
	sched *vtime.Scheduler
}

// SplitPair builds a cross-shard point-to-point link as two half
// segments, one per region Sim: each half owns its own randomness stream,
// stats and bandwidth state, and a frame sent on one half is delivered to
// the NICs attached to the *other* half after the usual latency. The
// link's Latency must be positive — it is registered with the shard group
// as the pair's conservative lookahead window (a frame entering the wire
// now cannot pop out at the far end sooner), which is what lets the two
// regions run concurrently. Both sims' schedulers must be shards of the
// same vtime.Group.
//
// Fault state is per half: SetDown/SetFaultHook on one half affects
// frames entering the wire from that side only, so partitioning a split
// link means downing both halves.
func SplitPair(a, b *Sim, name string, opts SegmentOpts) (*Segment, *Segment, error) {
	if opts.Latency <= 0 {
		return nil, nil, fmt.Errorf("netsim: SplitPair(%s): latency %v must be positive — the link latency is "+
			"the pair's shard lookahead window", name, opts.Latency)
	}
	ga, gb := a.Sched.Group(), b.Sched.Group()
	if ga == nil || ga != gb {
		return nil, nil, fmt.Errorf("netsim: SplitPair(%s): both sims must run on shards of the same vtime.Group", name)
	}
	sa, sb := a.Sched.ShardID(), b.Sched.ShardID()
	if sa == sb {
		return nil, nil, fmt.Errorf("netsim: SplitPair(%s): both ends on shard %d — use NewSegment for an intra-region link", name, sa)
	}
	if err := ga.Link(sa, sb, opts.Latency); err != nil {
		return nil, nil, err
	}
	if err := ga.Link(sb, sa, opts.Latency); err != nil {
		return nil, nil, err
	}
	ha := a.NewSegment(name, opts)
	hb := b.NewSegment(name, opts)
	ha.remote = &remoteEnd{peer: hb, sched: b.Sched}
	hb.remote = &remoteEnd{peer: ha, sched: a.Sched}
	return ha, hb, nil
}

// RemotePeer returns the far half of a split segment, or nil for an
// ordinary (single-shard) segment. The peer belongs to another shard:
// callers must not touch its mutable state outside the delivery queue —
// the shardpin analyzer enforces this.
func (seg *Segment) RemotePeer() *Segment {
	if seg.remote == nil {
		return nil
	}
	return seg.remote.peer
}

// Name returns the segment's name.
func (seg *Segment) Name() string { return seg.name }

// Sim returns the simulation (region) that owns the segment. Topology
// builders use it to place hosts in the region of the LAN they sit on.
func (seg *Segment) Sim() *Sim { return seg.sim }

// MTU returns the segment MTU.
func (seg *Segment) MTU() int { return seg.opts.MTU }

// Latency returns the one-way propagation delay.
func (seg *Segment) Latency() vtime.Duration { return seg.opts.Latency }

// NICs returns the currently attached NICs.
func (seg *Segment) NICs() []*NIC { return seg.nics }

// ARPResolver returns the segment's ARP resolver, or nil while no
// broadcast ARP frame has landed on it (or the Sim has none installed).
func (seg *Segment) ARPResolver() ARPResolver { return seg.arp }

// An ARPResolver takes over the fan-out of broadcast ARP frames on one
// segment. Every NIC on a segment hears each broadcast ARP frame, but in
// the simulated stack the only effect most of them have is to learn the
// sender's mapping; the stack records that learn once for the whole
// segment and calls back only the few NICs with something else to do
// (the target, proxy holders, resolutions waiting on the sender).
type ARPResolver interface {
	// ResolveARP is handed each broadcast ARP frame f that lands on the
	// segment and is heard by at least one NIC. It applies, once, what
	// every NIC that hears f learns from it, and appends to dests the
	// attached NICs whose receive callbacks must still run, in any order
	// and possibly repeated. The segment then calls each of them once, in
	// attachment-slot order — the order the full fan-out would have
	// called them in — and counts every NIC that heard f in Delivered.
	ResolveARP(f Frame, dests []*NIC) []*NIC
}

// Impairment is a fault hook's verdict on one frame. The zero value passes
// the frame through untouched.
type Impairment struct {
	// Drop discards the frame (counted under Cause).
	Drop bool
	// Cause attributes a Drop in the metrics drop-cause vector. The zero
	// value is metrics.DropFault, so hooks that don't care still count
	// under the generic fault bucket; the faults package sets specific
	// causes (gilbert_elliott, blackhole) so chaos invariants can read
	// per-mechanism counts from one registry.
	Cause metrics.DropCause
	// Duplicate delivers a second, independent copy of the frame at the
	// same delay.
	Duplicate bool
	// Corrupt flips one RNG-chosen payload bit before delivery, so
	// checksums — not the simulator — must catch the damage.
	Corrupt bool
	// ExtraDelay adds bounded extra latency to this frame only; later
	// frames can overtake it.
	ExtraDelay vtime.Duration
}

// SetFaultHook installs (or with nil removes) the segment's fault hook.
// The hook runs after the down and MTU checks, draws any
// randomness it needs from the sim scheduler's RNG, and must not retain
// or mutate the frame's payload.
func (seg *Segment) SetFaultHook(fn func(Frame) Impairment) { seg.fault = fn }

// SetDown marks the segment administratively down (true) or up (false).
// Frames offered while down are dropped and counted as drop/down;
// frames already in flight still deliver (the partition cuts the cable,
// it does not vaporize signals already past it).
func (seg *Segment) SetDown(v bool) { seg.down = v }

// Down reports whether the segment is administratively down.
func (seg *Segment) Down() bool { return seg.down }

// dropDown counts and traces a frame offered to an administratively-down
// segment. Kept out of line so the fast path pays only the branch.
//
//go:noinline
func (seg *Segment) dropDown(f Frame) {
	seg.sim.Metrics.Drop(metrics.DropDown)
	if tr := seg.sim.Trace; tr.On() {
		tr.Record(Event{Kind: EventDropDown, Time: seg.sim.Now(), Where: seg.name})
	}
	PutBuf(f.Buf)
}

// SegIndexMin is the attachment count beyond which a segment builds its
// MAC index; below it, unicast dispatch linear-scans nics. Layers above
// that keep per-segment indexes of their own use the same threshold.
const SegIndexMin = 8

// lookup returns the attached NIC with the given MAC, or nil: through the
// MAC index on big segments, a linear scan on small ones.
func (seg *Segment) lookup(mac MAC) *NIC {
	if seg.byMAC != nil {
		return seg.byMAC[mac]
	}
	for _, n := range seg.nics {
		if n.mac == mac {
			return n
		}
	}
	return nil
}

func (seg *Segment) attach(n *NIC) {
	if seg.nics == nil {
		seg.nics = make([]*NIC, 0, 4)
	}
	n.segIdx = len(seg.nics)
	seg.nics = append(seg.nics, n)
	if seg.byMAC != nil {
		seg.byMAC[n.mac] = n
	} else if len(seg.nics) > SegIndexMin {
		seg.byMAC = make(map[MAC]*NIC, 2*len(seg.nics))
		for _, m := range seg.nics {
			seg.byMAC[m.mac] = m
		}
	}
	if n.promiscuous {
		seg.promisc++
	}
}

func (seg *Segment) detach(n *NIC) {
	// The NIC records its own slot, so removal is O(1): a handoff storm
	// detaches thousands of NICs from cell segments, and the old linear
	// scan made fleet-scale roaming quadratic in the population.
	i := n.segIdx
	if i < 0 || i >= len(seg.nics) || seg.nics[i] != n {
		return
	}
	last := len(seg.nics) - 1
	if i != last {
		seg.nics[i] = seg.nics[last]
		seg.nics[i].segIdx = i
	}
	// Nil the trailing slot: the old append-based removal left the final
	// element aliased in the backing array, keeping detached NICs (and
	// their whole host) reachable.
	seg.nics[last] = nil
	seg.nics = seg.nics[:last]
	n.segIdx = -1
	if seg.byMAC != nil {
		delete(seg.byMAC, n.mac)
	}
	if n.promiscuous {
		seg.promisc--
	}
}

// send transmits a frame on the segment. Delivery is scheduled after the
// segment latency; unicast frames go to the owning NIC only, broadcast to
// all NICs except the sender.
func (seg *Segment) send(from *NIC, f Frame) {
	if seg.down {
		seg.dropDown(f)
		return
	}
	if len(f.Payload) > seg.opts.MTU {
		seg.sim.Metrics.Drop(metrics.DropMTU)
		if tr := seg.sim.Trace; tr.On() {
			tr.Record(Event{
				Kind: EventDropMTU, Time: seg.sim.Now(), Where: seg.name,
				Detail: fmt.Sprintf("payload %d > mtu %d", len(f.Payload), seg.opts.MTU),
			})
		}
		PutBuf(f.Buf)
		return
	}
	if tr := seg.sim.Trace; tr.On() {
		// The frame as transmitted, before any fault-hook loss or
		// corruption: the vantage point of a capture at the sending NIC.
		// Only this copy reaches the heap, so an untraced send does not
		// allocate.
		fc := f
		tr.Record(Event{Kind: EventFrame, Time: seg.sim.Now(), Where: seg.name, PktID: f.TraceID, Frame: &fc})
	}
	var imp Impairment
	if seg.fault != nil {
		imp = seg.fault(f)
		if imp.Drop {
			seg.sim.Metrics.Drop(imp.Cause)
			if tr := seg.sim.Trace; tr.On() {
				tr.Record(Event{Kind: EventDropFault, Time: seg.sim.Now(), Where: seg.name})
			}
			PutBuf(f.Buf)
			return
		}
		if imp.Corrupt && len(f.Payload) > 0 && f.Buf != nil {
			// Flip one bit in the pooled (link-owned) payload; anything
			// above the link layer must detect this via checksums. Frames
			// without a pooled buffer may alias sender-retained storage,
			// so those are left alone.
			bit := seg.rng.Int64N(int64(len(f.Payload)) * 8)
			f.Payload[bit/8] ^= 1 << uint(bit%8)
		}
	}
	wireBytes := len(f.Payload) + FrameHeaderLen
	seg.BytesCarried += uint64(wireBytes)
	seg.sim.Metrics.LinkFrames.Inc()
	seg.sim.Metrics.LinkBytes.Add(uint64(wireBytes))
	// Bandwidth model: the frame must wait for the medium, then occupies
	// it for its serialization time; propagation latency follows.
	delay := seg.opts.Latency
	if imp.ExtraDelay > 0 {
		delay += imp.ExtraDelay
	}
	if seg.opts.BandwidthBps > 0 {
		now := seg.sim.Now()
		start := seg.busyUntil
		if start.Before(now) {
			start = now
		}
		txTime := vtime.Duration(int64(wireBytes) * 8 * 1e9 / seg.opts.BandwidthBps)
		seg.busyUntil = start.Add(txTime)
		delay = seg.busyUntil.Sub(now) + seg.opts.Latency + imp.ExtraDelay
	}
	// Receivers are resolved at *delivery* time, in runDelivery — what
	// matters physically is who is attached when the frame arrives, and
	// resolving there keeps every read of NIC attachment state on the
	// shard that owns the receiving half of a split link. The pooled
	// delivery job carries only the frame and the receiving segment.
	d := deliveryPool.Get().(*delivery)
	d.seg = seg
	d.frame = f
	dst := seg.sim.Sched
	if r := seg.remote; r != nil {
		// Split link: the frame crosses a shard boundary. The delivery
		// executes on the peer's scheduler; the link latency ≤ delay is
		// the lookahead slack SplitPair registered for this pair.
		//mob4x4vet:allow shardpin handing the peer half to its own shard's delivery queue is the sanctioned crossing
		d.seg = r.peer
		dst = r.sched
	}
	at := seg.sim.Now().Add(delay)
	seg.sim.Sched.SendTo(dst, at, runDelivery, d)
	if imp.Duplicate {
		// Deliver an independent copy at the same delay: its payload is
		// cloned into a fresh pooled buffer because the original is
		// recycled when its own delivery completes. Duplicates skip
		// bandwidth accounting — they model a confused relay, not a
		// second transmission by the sender.
		db := GetBuf()
		db.B = append(db.B, f.Payload...)
		dd := deliveryPool.Get().(*delivery)
		dd.seg = d.seg
		dd.frame = f
		dd.frame.Payload = db.B
		dd.frame.Buf = db
		seg.sim.Sched.SendTo(dst, at, runDelivery, dd)
	}
}

// NIC is a network interface attached to (at most) one segment. The
// owning stack provides the receive callback.
type NIC struct {
	sim     *Sim
	name    string
	mac     MAC
	segment *Segment
	// segIdx is this NIC's slot in segment.nics (-1 while detached),
	// maintained by attach/detach so detaching is O(1) instead of a scan.
	segIdx      int
	recv        func(*NIC, Frame)
	promiscuous bool
	// owner is opaque to netsim: the stack stores its interface here so
	// that an ARPResolver handed bare NICs can find the interfaces behind
	// them.
	owner any
	// Stats
	TxFrames, TxBytes uint64
}

// NewNIC allocates a NIC with a fresh MAC. It starts detached.
func (s *Sim) NewNIC(name string) *NIC {
	return &NIC{sim: s, name: name, mac: s.AllocMAC(), segIdx: -1}
}

// Name returns the interface name.
func (n *NIC) Name() string { return n.name }

// MAC returns the interface's link-layer address.
func (n *NIC) MAC() MAC { return n.mac }

// Segment returns the segment the NIC is attached to, or nil.
func (n *NIC) Segment() *Segment { return n.segment }

// Attached reports whether the NIC is connected to a segment.
func (n *NIC) Attached() bool { return n.segment != nil }

// MTU returns the MTU of the attached segment, or DefaultMTU if detached.
func (n *NIC) MTU() int {
	if n.segment == nil {
		return DefaultMTU
	}
	return n.segment.MTU()
}

// SetReceiver installs the frame receive callback (called by the owning
// stack exactly once during setup).
func (n *NIC) SetReceiver(fn func(*NIC, Frame)) { n.recv = fn }

// SetOwner records the object that owns the NIC (see Owner).
func (n *NIC) SetOwner(o any) { n.owner = o }

// Owner returns what SetOwner recorded, or nil.
func (n *NIC) Owner() any { return n.owner }

// SetPromiscuous makes the NIC receive all frames on its segment.
func (n *NIC) SetPromiscuous(v bool) {
	if v == n.promiscuous {
		return
	}
	n.promiscuous = v
	if n.segment != nil {
		if v {
			n.segment.promisc++
		} else {
			n.segment.promisc--
		}
	}
}

// Attach connects the NIC to a segment, detaching from any previous one —
// this is the "mobile host moves" primitive.
func (n *NIC) Attach(seg *Segment) {
	if n.segment != nil {
		n.segment.detach(n)
	}
	n.segment = seg
	if seg != nil {
		seg.attach(n)
	}
}

// Detach disconnects the NIC (mobile host in transit / laptop asleep).
func (n *NIC) Detach() { n.Attach(nil) }

// Rehome moves a detached NIC to another region Sim: host migration
// re-parents a mobile node's interfaces onto the destination region's
// scheduler, tracer and metrics. The NIC must be detached — an attached
// NIC is reachable from its old segment, which lives on the old shard.
func (n *NIC) Rehome(sim *Sim) {
	if n.segment != nil {
		assert.Unreachable("netsim: Rehome of %s while attached to %s", n.name, n.segment.name)
	}
	n.sim = sim
}

// Send transmits a frame from this NIC onto its segment. Sending while
// detached silently drops the frame (the cable is unplugged).
func (n *NIC) Send(f Frame) {
	f.Src = n.mac
	if n.segment == nil {
		PutBuf(f.Buf) // cable unplugged: the frame dies here
		return
	}
	n.TxFrames++
	n.TxBytes += uint64(len(f.Payload) + FrameHeaderLen)
	n.segment.send(n, f)
}
