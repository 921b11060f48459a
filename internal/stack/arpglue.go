package stack

import (
	"mob4x4/internal/arp"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
	"mob4x4/internal/vtime"
)

// resolveJob tracks packets queued while an address resolution is in
// flight on an interface.
type resolveJob struct {
	pkts    []ipv4.Packet
	retries int
	timer   *vtime.Timer
}

// resolveAndSend link-transmits pkt out of the interface, resolving
// nexthop to a MAC first. Broadcast and multicast destinations bypass ARP.
func (i *Iface) resolveAndSend(nexthop ipv4.Addr, pkt ipv4.Packet) {
	if nexthop.IsBroadcast() || (i.prefix.Bits > 0 && nexthop == i.prefix.BroadcastAddr()) || nexthop.IsMulticast() {
		i.sendIPFrame(netsim.BroadcastMAC, pkt)
		return
	}
	now := int64(i.host.sim.Now())
	if mac, ok := i.cache.Lookup(nexthop, now, int64(i.host.ARPCacheTTL)); ok {
		i.sendIPFrame(mac, pkt)
		return
	}
	job, inFlight := i.pending[nexthop]
	if !inFlight {
		job = &resolveJob{retries: i.host.ARPRetries}
		if i.pending == nil {
			i.pending = make(map[ipv4.Addr]*resolveJob)
		}
		i.pending[nexthop] = job
		i.watch()
		i.sendARPRequest(nexthop)
		i.armARPTimer(nexthop, job)
	}
	// Bound the per-nexthop queue: an unresolvable nexthop fed by a fast
	// sender would otherwise pin copied payloads without limit until the
	// resolution times out. Real stacks keep just one packet; ours keeps
	// a small window and sheds the oldest.
	if limit := i.host.ARPQueueLimit; limit > 0 && len(job.pkts) >= limit {
		drop := len(job.pkts) - limit + 1
		i.host.metrics.DropN(metrics.DropARPExpired, uint64(drop))
		copy(job.pkts, job.pkts[drop:])
		job.pkts = job.pkts[:len(job.pkts)-drop]
	}
	// The queued packet may alias a pooled frame buffer (forwarding path)
	// that is recycled when the receive callback returns, while the queue
	// waits for the ARP reply — take a private copy.
	//mob4x4vet:allow hotpathalloc ARP-miss queueing must retain the packet
	job.pkts = append(job.pkts, pkt.Clone())
}

func (i *Iface) armARPTimer(target ipv4.Addr, job *resolveJob) {
	job.timer = vtime.NewTimer(func() {
		cur, ok := i.pending[target]
		if !ok || cur != job {
			return
		}
		job.retries--
		if job.retries > 0 {
			i.sendARPRequest(target)
			job.timer.Reset(i.host.sim.Sched, i.host.ARPTimeout)
			return
		}
		delete(i.pending, target)
		i.watch()
		i.host.metrics.DropN(metrics.DropNoARP, uint64(len(job.pkts)))
		if tr := i.host.sim.Trace; tr.On() {
			detail := "ARP resolution failed for " + target.String()
			for _, p := range job.pkts {
				tr.Record(netsim.Event{
					Kind: netsim.EventDropNoRoute, Time: i.host.sim.Now(),
					Where: i.host.name, PktID: p.TraceID, Detail: detail,
				})
			}
		}
	})
	job.timer.Reset(i.host.sim.Sched, i.host.ARPTimeout)
}

func (i *Iface) sendARPRequest(target ipv4.Addr) {
	msg := arp.Message{
		Op:        arp.OpRequest,
		SenderMAC: i.nic.MAC(),
		SenderIP:  i.addr,
		TargetIP:  target,
	}
	i.sendARPFrame(netsim.BroadcastMAC, &msg)
}

// sendARPFrame marshals msg into a pooled buffer and transmits it; the
// link layer recycles the buffer after delivery.
func (i *Iface) sendARPFrame(dst netsim.MAC, msg *arp.Message) {
	buf := netsim.GetBuf()
	buf.B = msg.AppendMarshal(buf.B)
	i.nic.Send(netsim.Frame{
		Dst:     dst,
		Type:    netsim.EtherTypeARP,
		Payload: buf.B,
		Buf:     buf,
	})
}

// GratuitousARP broadcasts a gratuitous request for addr from this
// interface, updating neighbours' caches. A home agent issues this when it
// starts (or stops) proxying for a mobile host, and a returning mobile
// host issues it to reclaim its address ([RFC1027]).
func (i *Iface) GratuitousARP(addr ipv4.Addr) {
	msg := arp.GratuitousRequest(i.nic.MAC(), addr)
	i.sendARPFrame(netsim.BroadcastMAC, &msg)
}

func (i *Iface) receiveARP(f netsim.Frame) {
	msg, err := arp.Unmarshal(f.Payload)
	if err != nil {
		return
	}
	// Learn (or refresh) the sender's mapping unless it is a conflicting
	// claim for our own address. A broadcast was already learned for the
	// whole segment, in its table (see segARP).
	if !msg.SenderIP.IsZero() && msg.SenderIP != i.addr {
		if f.Dst != netsim.BroadcastMAC {
			i.cache.Learn(msg.SenderIP, msg.SenderMAC, int64(i.host.sim.Now()))
		}
		i.drainPending(msg.SenderIP, msg.SenderMAC)
	}
	if !i.answers(&msg) {
		return
	}
	reply := arp.Message{
		Op:        arp.OpReply,
		SenderMAC: i.nic.MAC(),
		SenderIP:  msg.TargetIP, // proxy replies claim the proxied address
		TargetMAC: msg.SenderMAC,
		TargetIP:  msg.SenderIP,
	}
	i.sendARPFrame(msg.SenderMAC, &reply)
}

// answers reports whether the interface replies to msg: a request for its
// own address or any proxied address. A gratuitous announcement
// (sender==target) is a cache update, not a question, and is never
// answered.
func (i *Iface) answers(msg *arp.Message) bool {
	return msg.Op == arp.OpRequest && msg.SenderIP != msg.TargetIP &&
		(msg.TargetIP == i.addr && !i.addr.IsZero() || i.proxy.Contains(msg.TargetIP))
}

// waitsFor reports whether a broadcast from ip drains a resolution the
// interface has in flight.
func (i *Iface) waitsFor(ip ipv4.Addr) bool {
	_, ok := i.pending[ip]
	return ok && !ip.IsZero() && ip != i.addr
}

func (i *Iface) drainPending(ip ipv4.Addr, mac netsim.MAC) {
	job, ok := i.pending[ip]
	if !ok {
		return
	}
	delete(i.pending, ip)
	i.watch()
	job.timer.Stop()
	for _, pkt := range job.pkts {
		i.sendIPFrame(mac, pkt)
	}
}

func (i *Iface) sendIPFrame(dst netsim.MAC, pkt ipv4.Packet) {
	buf := netsim.GetBuf()
	b, err := pkt.AppendMarshal(buf.B)
	if err != nil {
		netsim.PutBuf(buf)
		return
	}
	buf.B = b
	i.nic.Send(netsim.Frame{
		Dst:     dst,
		Type:    netsim.EtherTypeIPv4,
		Payload: b,
		TraceID: pkt.TraceID,
		Buf:     buf,
	})
}

// segARP is a segment's shared ARP state. The Sim builds it when the
// first broadcast ARP frame lands on the segment (newSegARP is the Sim's
// ARPResolver constructor), so building a world allocates none. It holds
// the learning table that the cache of every interface on the segment
// views, and picks out the few interfaces a broadcast must still reach.
type segARP struct {
	seg   *netsim.Segment
	table arp.Table
	// members counts the interfaces attached through the stack (AddIface,
	// Iface.Attach). Were it to differ from the segment's NIC count,
	// something attached a NIC the index does not know, and ResolveARP
	// scans.
	members int
	// idx finds the interfaces to pick without a scan of every NIC. It
	// is built once the segment outgrows netsim.SegIndexMin NICs.
	idx *arpIndex
}

// arpIndex indexes a segment's member interfaces: every member by its
// address, and the watched members — those with a pending resolution or
// a proxied address, which may act on a broadcast not addressed to them.
// byAddr heads, per address, the chain of members holding it, linked
// through Iface.sameAddr (longer than one only while addresses
// conflict); a head of nil stays in the map, so members that move and
// readdress do not churn it.
type arpIndex struct {
	byAddr  map[ipv4.Addr]*Iface
	watched []*Iface
}

// newSegARP builds seg's state and makes its table part of the view of
// every interface already on it: they joined the segment (and flushed)
// before the table existed, so everything their caches hold is older.
func newSegARP(seg *netsim.Segment) netsim.ARPResolver {
	s := &segARP{seg: seg}
	for _, n := range seg.NICs() {
		if ifc, ok := n.Owner().(*Iface); ok {
			s.members++
			ifc.cache.Bind(&s.table)
		}
	}
	return s
}

// segARPOf returns seg's ARP state, or nil.
func segARPOf(seg *netsim.Segment) *segARP {
	if seg == nil {
		return nil
	}
	s, _ := seg.ARPResolver().(*segARP)
	return s
}

// ResolveARP records the frame's sender in the table and returns the
// interfaces that must act on it: the target or a proxy holder, which
// reply, and any interface waiting to resolve the sender.
func (s *segARP) ResolveARP(f netsim.Frame, dests []*netsim.NIC) []*netsim.NIC {
	msg, err := arp.Unmarshal(f.Payload)
	if err == nil && !msg.SenderIP.IsZero() {
		s.table.Learn(msg.SenderIP, msg.SenderMAC, f.Src, int64(s.seg.Sim().Now()))
	}
	nics := s.seg.NICs()
	if s.members != len(nics) || (s.idx == nil && len(nics) <= netsim.SegIndexMin) {
		for _, n := range nics {
			ifc, ok := n.Owner().(*Iface)
			if n.MAC() != f.Src && (!ok || err == nil && ifc.mustHear(&msg)) {
				dests = append(dests, n)
			}
		}
		return dests
	}
	if err != nil {
		return dests
	}
	if s.idx == nil {
		s.idx = &arpIndex{byAddr: make(map[ipv4.Addr]*Iface, len(nics))}
		for _, n := range nics {
			if ifc, ok := n.Owner().(*Iface); ok {
				s.idx.add(ifc)
			}
		}
	}
	for ifc := s.idx.byAddr[msg.TargetIP]; ifc != nil; ifc = ifc.sameAddr {
		dests = pick(dests, ifc, f.Src, &msg)
	}
	for _, ifc := range s.idx.watched {
		dests = pick(dests, ifc, f.Src, &msg)
	}
	return dests
}

// pick appends the candidate's NIC if it must hear msg.
func pick(dests []*netsim.NIC, ifc *Iface, src netsim.MAC, msg *arp.Message) []*netsim.NIC {
	if ifc.nic.MAC() != src && ifc.mustHear(msg) {
		dests = append(dests, ifc.nic)
	}
	return dests
}

// mustHear reports whether a broadcast msg has an effect on the interface
// beyond the learn the segment table records for it.
func (i *Iface) mustHear(msg *arp.Message) bool {
	return i.answers(msg) || i.waitsFor(msg.SenderIP)
}

func (x *arpIndex) add(i *Iface) {
	i.sameAddr = x.byAddr[i.addr]
	x.byAddr[i.addr] = i
	if i.watchable() {
		x.watched = append(x.watched, i)
	}
}

func (x *arpIndex) remove(i *Iface) {
	if head := x.byAddr[i.addr]; head == i {
		x.byAddr[i.addr] = i.sameAddr
	} else {
		for ; head != nil; head = head.sameAddr {
			if head.sameAddr == i {
				head.sameAddr = i.sameAddr
				break
			}
		}
	}
	i.sameAddr = nil
	x.watched = without(x.watched, i)
}

// without removes i from list, if present, without keeping order.
func without(list []*Iface, i *Iface) []*Iface {
	for k, x := range list {
		if x == i {
			last := len(list) - 1
			list[k] = list[last]
			list[last] = nil
			return list[:last]
		}
	}
	return list
}

// watchable reports whether the interface belongs on its segment's
// watched list.
func (i *Iface) watchable() bool { return len(i.pending) > 0 || i.proxy.Len() > 0 }

// join makes the interface a member of the segment its NIC is attached to
// (if any) and flushes its cache into a view of that segment's table.
// Every change of segment or address passes through here.
func (i *Iface) join() {
	s := segARPOf(i.nic.Segment())
	var t *arp.Table
	if s != nil {
		t = &s.table
		s.members++
		if s.idx != nil {
			s.idx.add(i)
		}
	}
	i.cache.Join(t, i.nic.MAC(), i.addr)
}

// leave undoes join before the interface changes segment or address.
func (i *Iface) leave() {
	if s := segARPOf(i.nic.Segment()); s != nil {
		s.members--
		if s.idx != nil {
			s.idx.remove(i)
		}
	}
}

// watch brings the segment's watched list up to date after the
// interface's pending resolutions or proxied addresses changed.
func (i *Iface) watch() {
	s := segARPOf(i.nic.Segment())
	if s == nil || s.idx == nil {
		return
	}
	s.idx.watched = without(s.idx.watched, i)
	if i.watchable() {
		s.idx.watched = append(s.idx.watched, i)
	}
}
