package mobileip_test

import (
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/stack"
)

// BenchmarkRegistration measures the registration round trip: request
// marshal, UDP+IP transit across the simulated internet, agent binding
// update (proxy ARP, claim, timers), and the reply back.
func BenchmarkRegistration(b *testing.B) {
	w := buildWorld(b, worldOpts{})
	careOf := w.visitLAN.NextAddr()
	w.mn.MoveTo(w.visitLAN.Seg, careOf, w.visitLAN.Prefix, w.visitLAN.Gateway)
	w.net.RunFor(3e9)
	if !w.mn.Registered() {
		b.Fatal("initial registration failed")
	}
	careOf2 := w.visitLAN.NextAddr()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate care-of addresses: every move is a fresh
		// registration exchange.
		coa := careOf
		if i%2 == 1 {
			coa = careOf2
		}
		w.mn.MoveTo(w.visitLAN.Seg, coa, w.visitLAN.Prefix, w.visitLAN.Gateway)
		w.net.RunFor(3e9)
		if !w.mn.Registered() {
			b.Fatal("registration failed mid-benchmark")
		}
	}
	b.ReportMetric(float64(w.ha.Stats.Registrations), "registrations")
}

// BenchmarkTunnelForwarding measures the home agent's per-packet capture
// + encapsulate + resubmit path, end to end through the simulated
// internet to the mobile host.
func BenchmarkTunnelForwarding(b *testing.B) { benchTunnel(b, 1000) }

// BenchmarkTunnelForwardingFragmented is BenchmarkTunnelForwarding with a
// payload that fits a 1500-byte link plain but not once the home agent
// adds its IPIP header: every packet is fragmented at the home agent and
// reassembled at the mobile host (§3.3's "doubles the packet count").
func BenchmarkTunnelForwardingFragmented(b *testing.B) { benchTunnel(b, 1472) }

func benchTunnel(b *testing.B, size int) {
	w := buildWorld(b, worldOpts{selector: core.NewSelector(core.StartOptimistic)})
	w.roam(b)
	var delivered int
	w.mhHost.Handle(99, func(_ *stack.Iface, pkt ipv4.Packet) { delivered++ })
	payload := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.chFar.SendIP(ipv4.Packet{
			Header:  ipv4.Header{Protocol: 99, Dst: w.mn.Home()},
			Payload: payload,
		})
		if i%64 == 63 {
			// Bounded drain: the mobile node's renewal timers keep the
			// queue non-empty forever, so Run() would never return.
			w.net.RunFor(1e9)
		}
	}
	w.net.RunFor(2e9)
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
}

// BenchmarkModeDecision measures the route-override hot path for each
// outgoing mode (the per-packet policy cost the paper's method cache
// keeps small).
func BenchmarkModeDecision(b *testing.B) {
	for _, mode := range []core.OutMode{core.OutIE, core.OutDE, core.OutDH} {
		b.Run(mode.String(), func(b *testing.B) {
			sel := core.NewSelector(core.StartPessimistic)
			m := mode
			sel.AddRule(core.Rule{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), ForceMode: &m})
			w := buildWorld(b, worldOpts{selector: sel, chDecap: true})
			w.roam(b)
			dst := w.chFar.FirstAddr()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkt := ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: dst}}
				_, _, _ = w.mhHost.RouteOverride(pkt)
			}
		})
	}
}
