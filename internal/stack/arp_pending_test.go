package stack

import (
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
)

// TestARPPendingQueueBounded pins the ARP-miss queue bound: a fast sender
// aimed at an unresolvable nexthop may pin at most ARPQueueLimit copied
// payloads; the oldest are shed and counted as drop/arp_expired, and the
// survivors are counted as drop/no_arp when the resolution times out.
func TestARPPendingQueueBounded(t *testing.T) {
	sim, a, _ := lanPair(t, netsim.SegmentOpts{})
	a.ARPQueueLimit = 4
	ghost := ipv4.MustParseAddr("10.0.0.99")

	const sent = 10
	for k := 0; k < sent; k++ {
		_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ghost}})
	}
	// All sends happened in one instant: the queue holds the newest 4,
	// the other 6 were shed on arrival.
	job := a.Ifaces()[0].pending[ghost]
	if job == nil {
		t.Fatal("no pending resolution for ghost address")
	}
	if got := len(job.pkts); got != 4 {
		t.Errorf("pending queue holds %d packets, want 4", got)
	}
	if n := sim.Metrics.DropCount(metrics.DropARPExpired); n != sent-4 {
		t.Errorf("drop/arp_expired = %d, want %d", n, sent-4)
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
}

// TestARPQueueUnboundedWhenDisabled keeps the 0 = unbounded contract.
func TestARPQueueUnboundedWhenDisabled(t *testing.T) {
	sim, a, _ := lanPair(t, netsim.SegmentOpts{})
	a.ARPQueueLimit = 0
	ghost := ipv4.MustParseAddr("10.0.0.99")
	for k := 0; k < 100; k++ {
		_ = a.SendIP(ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: ghost}})
	}
	if got := len(a.Ifaces()[0].pending[ghost].pkts); got != 100 {
		t.Errorf("pending queue holds %d packets, want 100", got)
	}
	if n := sim.Metrics.DropCount(metrics.DropARPExpired); n != 0 {
		t.Errorf("drop/arp_expired = %d, want 0 before expiry", n)
	}
}
