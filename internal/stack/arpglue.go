package stack

import (
	"mob4x4/internal/arp"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
	"mob4x4/internal/vtime"
)

// resolveJob is an address resolution in flight on an interface, with the
// packets queued behind it. A job is on one of its interface's two lists,
// linked through next: pending while it runs, free after. Finished jobs
// keep their timer and queue storage, so a miss on a warm interface
// allocates nothing.
type resolveJob struct {
	ifc     *Iface
	target  ipv4.Addr
	retries int
	timer   *vtime.Timer
	// queue holds the waiting packets marshalled into pooled frame
	// buffers: a packet may alias a buffer the link layer recycles when
	// the receive callback returns. Drain hands the buffers to the link
	// layer; shedding, expiry and Quiesce return them to the pool.
	queue []queued
	next  *resolveJob
}

// queued is one packet waiting for its nexthop's address. buf is nil for
// a packet that could not be marshalled: it still counts toward the queue
// bound and the drop totals, but nothing is sent for it.
type queued struct {
	buf     *netsim.Buf
	traceID uint64
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
	job := i.job(nexthop)
	if job == nil {
		job = i.newJob(nexthop)
		job.next = i.pending
		i.pending = job
		i.watch()
		i.sendARPRequest(nexthop)
		job.timer.Reset(i.host.sim.Sched, i.host.ARPTimeout)
	}
	// Bound the per-nexthop queue: an unresolvable nexthop fed by a fast
	// sender would otherwise pin buffers without limit until the
	// resolution times out. Real stacks keep just one packet; ours keeps
	// a small window and sheds the oldest.
	if limit := i.host.ARPQueueLimit; limit > 0 && len(job.queue) >= limit {
		drop := len(job.queue) - limit + 1
		i.host.metrics.DropN(metrics.DropARPExpired, uint64(drop))
		putBufs(job.queue[:drop])
		n := copy(job.queue, job.queue[drop:])
		clear(job.queue[n:])
		job.queue = job.queue[:n]
	}
	job.queue = append(job.queue, queued{buf: marshalIP(&pkt), traceID: pkt.TraceID})
}

// job returns the resolution in flight on the interface for ip, or nil.
// A scan: an interface has at most a few resolutions in flight.
func (i *Iface) job(ip ipv4.Addr) *resolveJob {
	for j := i.pending; j != nil; j = j.next {
		if j.target == ip {
			return j
		}
	}
	return nil
}

// unpend takes j off the interface's pending list.
func (i *Iface) unpend(j *resolveJob) {
	for p := &i.pending; *p != nil; p = &(*p).next {
		if *p == j {
			*p = j.next
			j.next = nil
			break
		}
	}
	i.watch()
}

// newJob returns a job for target from the interface's free list, or a
// new one with its timer.
func (i *Iface) newJob(target ipv4.Addr) *resolveJob {
	j := i.freeJobs
	if j != nil {
		i.freeJobs, j.next = j.next, nil
	} else {
		j = &resolveJob{ifc: i}
		j.timer = vtime.NewTimer(j.expire)
	}
	j.target, j.retries = target, i.host.ARPRetries
	return j
}

// freeJob puts a finished job on the interface's free list. Its queued
// buffers have been sent or returned to the pool.
func (i *Iface) freeJob(j *resolveJob) {
	clear(j.queue)
	j.queue = j.queue[:0]
	j.next, i.freeJobs = i.freeJobs, j
}

// expire is the job's timer: it asks again while retries remain, then
// gives up and drops the queue as drop/no_arp.
func (j *resolveJob) expire() {
	i := j.ifc
	j.retries--
	if j.retries > 0 {
		i.sendARPRequest(j.target)
		j.timer.Reset(i.host.sim.Sched, i.host.ARPTimeout)
		return
	}
	i.unpend(j)
	i.host.metrics.DropN(metrics.DropNoARP, uint64(len(j.queue)))
	if tr := i.host.sim.Trace; tr.On() {
		detail := "ARP resolution failed for " + j.target.String()
		for _, q := range j.queue {
			tr.Record(netsim.Event{
				Kind: netsim.EventDropNoRoute, Time: i.host.sim.Now(),
				Where: i.host.name, PktID: q.traceID, Detail: detail,
			})
		}
	}
	putBufs(j.queue)
	i.freeJob(j)
}

// putBufs returns the queued packets' buffers to the pool.
func putBufs(q []queued) {
	for _, p := range q {
		netsim.PutBuf(p.buf)
	}
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
	return !ip.IsZero() && ip != i.addr && i.job(ip) != nil
}

// drainPending sends the packets queued for ip, now resolved to mac.
func (i *Iface) drainPending(ip ipv4.Addr, mac netsim.MAC) {
	job := i.job(ip)
	if job == nil {
		return
	}
	i.unpend(job)
	job.timer.Stop()
	for _, q := range job.queue {
		if q.buf != nil {
			i.sendIPBuf(mac, q.buf, q.traceID)
		}
	}
	i.freeJob(job)
}

func (i *Iface) sendIPFrame(dst netsim.MAC, pkt ipv4.Packet) {
	if buf := marshalIP(&pkt); buf != nil {
		i.sendIPBuf(dst, buf, pkt.TraceID)
	}
}

// marshalIP marshals pkt into a pooled buffer, or returns nil if it
// cannot be marshalled.
func marshalIP(pkt *ipv4.Packet) *netsim.Buf {
	buf := netsim.GetBuf()
	b, err := pkt.AppendMarshal(buf.B)
	if err != nil {
		netsim.PutBuf(buf)
		return nil
	}
	buf.B = b
	return buf
}

// sendIPBuf hands a marshalled packet to the link layer, which owns buf
// from then on.
func (i *Iface) sendIPBuf(dst netsim.MAC, buf *netsim.Buf, traceID uint64) {
	i.nic.Send(netsim.Frame{
		Dst:     dst,
		Type:    netsim.EtherTypeIPv4,
		Payload: buf.B,
		TraceID: traceID,
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
func (i *Iface) watchable() bool { return i.pending != nil || i.proxy.Len() > 0 }

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
