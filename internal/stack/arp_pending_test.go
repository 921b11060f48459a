package stack

import (
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
)

// TestARPPendingQueueBounded pins the ARP-miss queue bound: a fast sender
// aimed at an unresolvable nexthop may pin at most ARPQueueLimit pooled
// buffers; the oldest are shed and counted as drop/arp_expired, and the
// survivors are counted as drop/no_arp when the resolution times out, or
// as drop/arp_expired when the host is quiesced. Every buffer goes back to
// the pool on each path.
func TestARPPendingQueueBounded(t *testing.T) {
	sim, a, _ := lanPair(t, netsim.SegmentOpts{})
	a.ARPQueueLimit = 4
	ghost := ipv4.MustParseAddr("10.0.0.99")
	outstanding := netsim.BufOutstanding()

	const sent = 10
	for k := 0; k < sent; k++ {
		_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ghost}})
	}
	// All sends happened in one instant: the queue holds the newest 4,
	// the other 6 were shed on arrival.
	job := a.Ifaces()[0].job(ghost)
	if job == nil {
		t.Fatal("no pending resolution for ghost address")
	}
	if got := len(job.queue); got != 4 {
		t.Errorf("pending queue holds %d packets, want 4", got)
	}
	if n := sim.Metrics.DropCount(metrics.DropARPExpired); n != sent-4 {
		t.Errorf("drop/arp_expired = %d, want %d", n, sent-4)
	}
	// The four survivors hold a buffer each, the ARP request in flight
	// one more; the shed packets' buffers are back in the pool.
	if got := netsim.BufOutstanding() - outstanding; got != 4+1 {
		t.Errorf("%d pooled buffers outstanding after shedding, want 5", got)
	}

	// Let the resolution expire: the queued survivors are dropped too,
	// so every packet sent is counted exactly once across the two causes.
	sim.Sched.Run()
	noARP := sim.Metrics.DropCount(metrics.DropNoARP)
	if noARP != 4 {
		t.Errorf("drop/no_arp = %d, want 4", noARP)
	}
	if n := sim.Metrics.DropCount(metrics.DropARPExpired) + noARP; n != sent {
		t.Errorf("drop/arp_expired + drop/no_arp = %d, want %d", n, sent)
	}
	if got := netsim.BufOutstanding(); got != outstanding {
		t.Errorf("pooled buffers outstanding %d -> %d across expiry", outstanding, got)
	}

	// Quiesce sheds a queue in flight as drop/arp_expired.
	expired := sim.Metrics.DropCount(metrics.DropARPExpired)
	for k := 0; k < sent; k++ {
		_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ghost}})
	}
	a.Quiesce()
	sim.Sched.Run()
	if n := sim.Metrics.DropCount(metrics.DropARPExpired) - expired; n != sent {
		t.Errorf("drop/arp_expired rose by %d across shedding and Quiesce, want %d", n, sent)
	}
	if a.Ifaces()[0].pending != nil {
		t.Error("Quiesce left a resolution in flight")
	}
	if got := netsim.BufOutstanding(); got != outstanding {
		t.Errorf("pooled buffers outstanding %d -> %d across Quiesce", outstanding, got)
	}
}

// TestARPQueueUnboundedWhenDisabled keeps the 0 = unbounded contract.
func TestARPQueueUnboundedWhenDisabled(t *testing.T) {
	sim, a, _ := lanPair(t, netsim.SegmentOpts{})
	a.ARPQueueLimit = 0
	ghost := ipv4.MustParseAddr("10.0.0.99")
	for k := 0; k < 100; k++ {
		_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ghost}})
	}
	if got := len(a.Ifaces()[0].job(ghost).queue); got != 100 {
		t.Errorf("pending queue holds %d packets, want 100", got)
	}
	if n := sim.Metrics.DropCount(metrics.DropARPExpired); n != 0 {
		t.Errorf("drop/arp_expired = %d, want 0 before expiry", n)
	}
}
