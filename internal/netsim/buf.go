package netsim

import (
	"slices"
	"sync"
	"sync/atomic"

	"mob4x4/internal/metrics"
)

// Buf is a reusable payload buffer drawn from a process-wide pool. The fast
// packet path serializes every frame payload into one of these instead of
// allocating per hop: the sender appends wire bytes into B, hands the Buf to
// the link layer via Frame.Buf, and the segment returns it to the pool once
// the frame is dropped or every receiver callback has returned.
//
// Ownership contract (see DESIGN.md "Performance engineering"):
//
//   - A Buf handed to NIC.Send via Frame.Buf belongs to the link layer.
//     The sender must not touch B afterwards.
//   - Receive callbacks may read the payload only until they return.
//     Anything retained past the callback (reassembly pieces, ARP pending
//     queues, delivery deferred through the scheduler) must be copied.
//     Fragments are copied into storage the host's ipv4.Reassembler owns
//     and reuses; a reassembled payload is borrowed from it by the same
//     rule, until the stack's demux returns. An ARP pending queue holds
//     each waiting packet marshalled into a Buf of its own, which the
//     drain hands to the link layer and shedding, expiry and
//     Host.Quiesce return to the pool.
//   - A Buf used as scratch (marshal, send synchronously, recycle) is
//     returned by the same function that got it.
//
// The pool is shared across simulations; sync.Pool is safe for the parallel
// experiment runner, and pooling does not affect determinism because buffer
// identity is never observable in traces.
type Buf struct {
	B []byte
}

// bufCap covers a full default-MTU frame plus tunnel headroom so steady
// state never grows a pooled buffer.
const bufCap = DefaultMTU + 64

//mob4x4vet:allow globalstate sync.Pool is concurrency-safe and buffer identity is unobservable; shards may share it
var bufPool = sync.Pool{New: func() any { return &Buf{B: make([]byte, 0, bufCap)} }}

// bufOutstanding counts buffers currently checked out of the pool
// (GetBuf minus PutBuf). The chaos experiment's quiescence invariant
// asserts it returns to its starting value once a run drains: a non-zero
// delta means some path leaked (or double-freed) a pooled buffer.
//
//mob4x4vet:allow globalstate atomic leak counter asserted by the chaos quiescence invariant; per-shard counts would hide cross-shard leaks
var bufOutstanding atomic.Int64

// BufOutstanding returns the number of pooled buffers currently checked
// out (GetBuf calls minus non-nil PutBuf calls), process-wide.
func BufOutstanding() int64 { return bufOutstanding.Load() }

// GetBuf returns an empty pooled buffer (len 0).
func GetBuf() *Buf {
	bufOutstanding.Add(1)
	return bufPool.Get().(*Buf)
}

// PutBuf returns b to the pool. nil is a no-op so error paths can recycle
// unconditionally.
func PutBuf(b *Buf) {
	if b == nil {
		return
	}
	bufOutstanding.Add(-1)
	b.B = b.B[:0]
	bufPool.Put(b)
}

// delivery is a pooled in-flight frame: the receiving segment plus the
// frame itself, scheduled through the handle-free vtime path so a
// steady-state hop allocates nothing. dests is scratch for runDelivery's
// receiver snapshot; its backing array is reused across deliveries.
type delivery struct {
	seg   *Segment
	frame Frame
	dests []*NIC
}

//mob4x4vet:allow globalstate sync.Pool is concurrency-safe and delivery identity is unobservable; shards may share it
var deliveryPool = sync.Pool{New: func() any { return new(delivery) }}

// runDelivery is the scheduler callback for frame delivery. A top-level
// func so scheduling it never allocates a closure.
//
// Receivers are resolved here — at arrival, against the segment's current
// attachment table — not at send time: who hears a frame is decided by
// who is on the wire when it lands (a NIC that attached mid-flight hears
// it, one that left does not), and for a split cross-shard segment this
// keeps every read of NIC state on the shard that owns the receiving
// half. The resolved set is snapshotted into the pooled dests slice
// before any callback runs, so receivers that attach or detach NICs from
// inside their callbacks cannot corrupt the iteration; the sender is
// excluded by MAC (frames carry Src, and MACs are cluster-unique), which
// works even when the sender's NIC lives on the far half.
func runDelivery(a any) {
	d := a.(*delivery)
	seg := d.seg
	f := d.frame
	if f.Dst == BroadcastMAC && f.Type == EtherTypeARP && seg.sim.newARP != nil {
		deliverARP(d)
		return
	}
	if f.Dst != BroadcastMAC && seg.promisc == 0 {
		// Unicast with nobody listening promiscuously: direct dispatch.
		if n := seg.lookup(f.Dst); n != nil && n.mac != f.Src {
			d.dests = append(d.dests, n)
		}
	} else {
		for _, n := range seg.nics {
			if n.mac == f.Src {
				continue
			}
			if f.Dst == BroadcastMAC || f.Dst == n.mac || n.promiscuous {
				d.dests = append(d.dests, n)
			}
		}
	}
	if len(d.dests) == 0 {
		seg.dropNoDest()
	}
	for _, n := range d.dests {
		if n.segment != seg {
			continue // detached by an earlier receiver in this very loop
		}
		seg.Delivered++
		if n.recv != nil {
			n.recv(n, f)
		}
	}
	// All receivers have returned (broadcast shares the one buffer), so
	// the payload storage can go back to the pool.
	PutBuf(f.Buf)
	releaseDelivery(d)
}

// deliverARP is runDelivery for a broadcast ARP frame on a Sim with an
// ARPResolver constructor: every attached NIC but the sender hears the
// frame and is counted, but only the NICs the segment's resolver picks
// are called back, in slot order. The hearers are counted on arrival, so
// a NIC that an earlier callback detaches still counts; ARP receive
// callbacks only ever send, so none does.
func deliverARP(d *delivery) {
	seg := d.seg
	f := d.frame
	heard := len(seg.nics)
	if seg.lookup(f.Src) != nil {
		heard--
	}
	if heard == 0 {
		seg.dropNoDest()
	} else {
		if seg.arp == nil {
			seg.arp = seg.sim.newARP(seg)
		}
		seg.Delivered += uint64(heard)
		d.dests = seg.arp.ResolveARP(f, d.dests)
		slices.SortFunc(d.dests, func(a, b *NIC) int { return a.segIdx - b.segIdx })
		d.dests = slices.Compact(d.dests)
	}
	for _, n := range d.dests {
		if n.segment == seg && n.recv != nil {
			n.recv(n, f)
		}
	}
	PutBuf(f.Buf)
	releaseDelivery(d)
}

// dropNoDest counts and traces a frame that no attached NIC hears.
func (seg *Segment) dropNoDest() {
	seg.sim.Metrics.Drop(metrics.DropNoDest)
	if tr := seg.sim.Trace; tr.On() {
		tr.Record(Event{Kind: EventDropNoDest, Time: seg.sim.Now(), Where: seg.name})
	}
}

func releaseDelivery(d *delivery) {
	d.seg = nil
	d.frame = Frame{}
	for i := range d.dests {
		d.dests[i] = nil
	}
	d.dests = d.dests[:0]
	deliveryPool.Put(d)
}
