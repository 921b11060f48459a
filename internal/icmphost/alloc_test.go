package icmphost

import (
	"testing"

	"mob4x4/internal/icmp"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/race"
)

// TestEchoZeroAllocs pins a ping and its echo reply at zero allocations
// once ARP caches and the buffer pool are warm: both messages are
// marshalled into pooled buffers.
func TestEchoZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	n, ica, icb, _, bAddr := twoHosts(t)
	replies := 0
	ica.OnEchoReply = func(ipv4.Addr, icmp.Message) { replies++ }
	payload := make([]byte, 56)
	echo := func() {
		_ = ica.Ping(ipv4.Zero, bAddr, 7, 1, payload)
		n.Run()
	}
	for i := 0; i < 16; i++ {
		echo()
	}
	replies = 0
	if allocs := testing.AllocsPerRun(100, echo); allocs != 0 {
		t.Errorf("ping and echo reply allocated %.1f times per run, want 0", allocs)
	}
	if replies != 101 || icb.EchoRequests != 117 {
		t.Fatalf("%d replies, %d requests answered; want 101 and 117", replies, icb.EchoRequests)
	}
}

// BenchmarkPingEcho is one ping and its echo reply between two hosts on
// a LAN, ARP resolved: 0 allocs/op.
func BenchmarkPingEcho(b *testing.B) {
	n, ica, _, _, bAddr := twoHosts(b)
	payload := make([]byte, 56)
	_ = ica.Ping(ipv4.Zero, bAddr, 7, 1, payload)
	n.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ica.Ping(ipv4.Zero, bAddr, 7, uint16(i), payload)
		n.Run()
	}
}
