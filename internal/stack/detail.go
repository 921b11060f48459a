package stack

import (
	"strconv"
	"sync"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

// This file holds the allocation-light support for the stack's hot paths:
// manual trace-detail builders (byte-identical to the fmt.Sprintf strings
// they replaced, but built with strconv into stack buffers: one allocation
// per detail where Sprintf takes several, which Capture windows pay on
// every event) and the pooled deferred-local-delivery job.

// pktDetail renders "src > dst proto=N len=N".
func pktDetail(src, dst ipv4.Addr, proto uint8, length int) string {
	var buf [64]byte
	b := src.AppendText(buf[:0])
	b = append(b, " > "...)
	b = dst.AppendText(b)
	b = append(b, " proto="...)
	b = strconv.AppendUint(b, uint64(proto), 10)
	b = append(b, " len="...)
	b = strconv.AppendInt(b, int64(length), 10)
	return string(b)
}

// linkDirectDetail renders "src > dst proto=N link-direct via A".
func linkDirectDetail(src, dst ipv4.Addr, proto uint8, via ipv4.Addr) string {
	var buf [96]byte
	b := src.AppendText(buf[:0])
	b = append(b, " > "...)
	b = dst.AppendText(b)
	b = append(b, " proto="...)
	b = strconv.AppendUint(b, uint64(proto), 10)
	b = append(b, " link-direct via "...)
	b = via.AppendText(b)
	return string(b)
}

// fwdDetail renders "src > dst ttl=N".
func fwdDetail(src, dst ipv4.Addr, ttl uint8) string {
	var buf [48]byte
	b := src.AppendText(buf[:0])
	b = append(b, " > "...)
	b = dst.AppendText(b)
	b = append(b, " ttl="...)
	b = strconv.AppendUint(b, uint64(ttl), 10)
	return string(b)
}

// dstDetail renders "dst=A".
func dstDetail(dst ipv4.Addr) string {
	var buf [24]byte
	b := append(buf[:0], "dst="...)
	b = dst.AppendText(b)
	return string(b)
}

// filterDetail renders "DIR filter on NIC: src=A dst=B".
func filterDetail(direction, nic string, src, dst ipv4.Addr) string {
	var buf [96]byte
	b := append(buf[:0], direction...)
	b = append(b, " filter on "...)
	b = append(b, nic...)
	b = append(b, ": src="...)
	b = src.AppendText(b)
	b = append(b, " dst="...)
	b = dst.AppendText(b)
	return string(b)
}

// localDelivery is a pooled deferred delivery: output() and InjectLocal
// post local deliveries through the scheduler so synchronous call chains
// cannot recurse (send → deliver → send → ...). The packet's payload and
// options may alias a pooled frame buffer that the link layer recycles as
// soon as the receive callback returns, while this job runs strictly
// later — so postLocal copies them into a pooled buffer the job owns.
type localDelivery struct {
	h   *Host
	pkt ipv4.Packet
	buf *netsim.Buf
}

//mob4x4vet:allow globalstate sync.Pool is concurrency-safe and delivery identity is unobservable; shards may share it
var localDeliveryPool = sync.Pool{New: func() any { return new(localDelivery) }}

// runLocalDelivery is the scheduler callback; a top-level func so
// scheduling it never allocates a closure.
func runLocalDelivery(a any) {
	d := a.(*localDelivery)
	h, pkt, buf := d.h, d.pkt, d.buf
	d.h, d.pkt, d.buf = nil, ipv4.Packet{}, nil
	localDeliveryPool.Put(d)
	h.deliverLocal(nil, pkt)
	// Protocol handlers follow the receive contract (copy anything they
	// retain), so the backing storage can be recycled now.
	netsim.PutBuf(buf)
}

func (h *Host) postLocal(pkt ipv4.Packet) {
	d := localDeliveryPool.Get().(*localDelivery)
	d.h = h
	// Copy the header by value with the borrowed slices detached, then
	// re-point Options/Payload at owned pooled storage. The stored packet
	// never aliases the caller's buffer, which dies when this call
	// returns.
	d.pkt = ipv4.Packet{Header: pkt.Header, TraceID: pkt.TraceID}
	d.pkt.Options = nil
	if len(pkt.Payload) > 0 || len(pkt.Options) > 0 {
		d.buf = netsim.GetBuf()
		b := append(d.buf.B, pkt.Options...)
		optEnd := len(b)
		b = append(b, pkt.Payload...)
		d.buf.B = b
		if optEnd > 0 {
			d.pkt.Options = b[:optEnd:optEnd]
		}
		d.pkt.Payload = b[optEnd:]
	}
	h.sim.Sched.SendTo(h.sim.Sched, h.sim.Now(), runLocalDelivery, d)
}
