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
	job.timer = i.host.sim.Sched.After(i.host.ARPTimeout, func() {
		cur, ok := i.pending[target]
		if !ok || cur != job {
			return
		}
		job.retries--
		if job.retries > 0 {
			i.sendARPRequest(target)
			job.timer.Reset(i.host.ARPTimeout)
			return
		}
		delete(i.pending, target)
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
	now := int64(i.host.sim.Now())
	// Learn (or refresh) the sender's mapping unless it is a conflicting
	// claim for our own address.
	if !msg.SenderIP.IsZero() && msg.SenderIP != i.addr {
		i.cache.Learn(msg.SenderIP, msg.SenderMAC, now)
		i.drainPending(msg.SenderIP, msg.SenderMAC)
	}
	if msg.Op != arp.OpRequest {
		return
	}
	// Answer for our own address or any proxied address.
	answer := msg.TargetIP == i.addr && !i.addr.IsZero()
	if !answer && i.proxy.Contains(msg.TargetIP) {
		answer = true
	}
	// Never answer a gratuitous announcement (sender==target): that is a
	// cache update, not a question.
	if msg.SenderIP == msg.TargetIP {
		answer = false
	}
	if !answer {
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

func (i *Iface) drainPending(ip ipv4.Addr, mac netsim.MAC) {
	job, ok := i.pending[ip]
	if !ok {
		return
	}
	delete(i.pending, ip)
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
