// Benchmarks regenerating every figure of the paper (see DESIGN.md's
// per-experiment index). Each benchmark runs the corresponding experiment
// end to end per iteration and exports the figure's headline numbers as
// custom metrics, so `go test -bench=. -benchmem` prints the reproduced
// results alongside the usual costs.
package mob4x4_test

import (
	"fmt"
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/experiments"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
)

// BenchmarkFig1BasicMobileIP — E1: asymmetric routing, conventional CH.
func BenchmarkFig1BasicMobileIP(b *testing.B) {
	var reqHops, repHops int
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig1(int64(i + 1))
		if !r.Ping.Delivered {
			b.Fatal("ping not delivered")
		}
		reqHops, repHops = r.Ping.RequestHops, r.Ping.ReplyHops
	}
	b.ReportMetric(float64(reqHops), "in-hops")
	b.ReportMetric(float64(repHops), "out-hops")
}

// BenchmarkFig2SourceFiltering — E2: Out-DH dies at the boundary.
func BenchmarkFig2SourceFiltering(b *testing.B) {
	var dhDelivered, ieDelivered int
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2(int64(i+1), true)
		for _, row := range r.Rows {
			switch row.Mode {
			case core.OutDH:
				dhDelivered = row.Delivered
			case core.OutIE:
				ieDelivered = row.Delivered
			}
		}
	}
	b.ReportMetric(float64(dhDelivered), "outdh-delivered/5")
	b.ReportMetric(float64(ieDelivered), "outie-delivered/5")
}

// BenchmarkFig3BidirTunnel — E3: bi-directional tunneling restores
// deliverability at the cost of path length.
func BenchmarkFig3BidirTunnel(b *testing.B) {
	var delivered int
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2(int64(i+1), true)
		for _, row := range r.Rows {
			if row.Mode == core.OutIE {
				delivered = row.Delivered
			}
		}
	}
	b.ReportMetric(float64(delivered), "delivered/5")
}

// BenchmarkFig4TriangleRouting — E4: indirect-delivery penalty vs
// home-agent distance; the ratio at the far end of the sweep is the
// figure's point.
func BenchmarkFig4TriangleRouting(b *testing.B) {
	var nearRatio, farRatio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFig4(int64(i+1), []int{0, 8})
		nearRatio = float64(rows[0].InIERTT) / float64(rows[0].InDERTT)
		farRatio = float64(rows[1].InIERTT) / float64(rows[1].InDERTT)
	}
	b.ReportMetric(nearRatio, "rtt-ratio-d0")
	b.ReportMetric(farRatio, "rtt-ratio-d8")
}

// BenchmarkFig5SmartCH — E5: hops before and after care-of discovery.
func BenchmarkFig5SmartCH(b *testing.B) {
	var before, after int
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig5(int64(i + 1))
		before, after = r.Hops[0], r.Hops[len(r.Hops)-1]
	}
	b.ReportMetric(float64(before), "hops-before")
	b.ReportMetric(float64(after), "hops-after")
}

// BenchmarkFig10Grid — E8: the full matrix; agreement must be 16/16.
func BenchmarkFig10Grid(b *testing.B) {
	var agree int
	for i := 0; i < b.N; i++ {
		cells := experiments.RunGrid(int64(i + 1))
		agree, _, _ = experiments.GridAgreement(cells)
		if agree != 16 {
			b.Fatalf("grid agreement %d/16", agree)
		}
	}
	b.ReportMetric(float64(agree), "cells-agree/16")
}

// BenchmarkEncapOverhead — E9: bytes added per scheme and the
// fragmentation doubling at the MTU.
func BenchmarkEncapOverhead(b *testing.B) {
	var ipip, minenc, gre float64
	for i := 0; i < b.N; i++ {
		rows := experiments.RunOverhead([]int{1400}, 1500)
		for _, r := range rows {
			switch r.Codec {
			case "ipip":
				ipip = float64(r.OverheadBytes)
			case "minenc":
				minenc = float64(r.OverheadBytes)
			case "gre":
				gre = float64(r.OverheadBytes)
			}
		}
	}
	b.ReportMetric(ipip, "ipip-bytes")
	b.ReportMetric(minenc, "minenc-bytes")
	b.ReportMetric(gre, "gre-bytes")
}

// BenchmarkTunnelFragmentation — E9 end-to-end: backbone packet count
// with and without the tunnel for a just-under-MTU payload.
func BenchmarkTunnelFragmentation(b *testing.B) {
	var plain, tunneled float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunTunnelFragmentation(int64(i+1), 1460)
		if !r.Delivered {
			b.Fatal("not delivered")
		}
		plain, tunneled = float64(r.PlainPackets), float64(r.TunnelPackets)
	}
	b.ReportMetric(plain, "plain-pkts")
	b.ReportMetric(tunneled, "tunnel-pkts")
}

// BenchmarkAdaptiveSelection — E10: wasted retransmissions per start
// strategy against a filtering home domain.
func BenchmarkAdaptiveSelection(b *testing.B) {
	var optRetrans, ruledRetrans float64
	for i := 0; i < b.N; i++ {
		rows := experiments.RunAdaptive(int64(i+1), true)
		for _, r := range rows {
			switch r.Strategy {
			case "optimistic":
				optRetrans = float64(r.Retransmissions)
			case "ruled":
				ruledRetrans = float64(r.Retransmissions)
			}
		}
	}
	b.ReportMetric(optRetrans, "optimistic-retrans")
	b.ReportMetric(ruledRetrans, "ruled-retrans")
}

// BenchmarkDurability — E11: sessions surviving movement by endpoint
// choice.
func BenchmarkDurability(b *testing.B) {
	var homeOK, tempOK float64
	for i := 0; i < b.N; i++ {
		home := experiments.RunDurability(int64(i+1), true, 3)
		temp := experiments.RunDurability(int64(i+1), false, 3)
		homeOK, tempOK = bool01(home.Survived), bool01(temp.Survived)
	}
	b.ReportMetric(homeOK, "home-survived")
	b.ReportMetric(tempOK, "temp-survived")
}

// BenchmarkWebBrowse — Row D: Out-DT vs full Mobile IP for short fetches.
func BenchmarkWebBrowse(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		mip := experiments.RunWebBrowse(int64(i+1), 5, true)
		dt := experiments.RunWebBrowse(int64(i+1), 5, false)
		speedup = float64(mip.TotalTime) / float64(dt.TotalTime)
	}
	b.ReportMetric(speedup, "outdt-speedup")
}

// BenchmarkForeignAgent — attachment-style ablation.
func BenchmarkForeignAgent(b *testing.B) {
	var selfOK, faOK float64
	for i := 0; i < b.N; i++ {
		self := experiments.RunForeignAgent(int64(i+1), false)
		fa := experiments.RunForeignAgent(int64(i+1), true)
		selfOK = bool01(self.PingDelivered && self.OutDTAvailable)
		faOK = bool01(fa.PingDelivered && !fa.OutDTAvailable)
	}
	b.ReportMetric(selfOK, "self-sufficient-ok")
	b.ReportMetric(faOK, "fa-restricted-ok")
}

// BenchmarkMulticastModes — §6.4: router work per delivered group packet,
// local join vs home relay.
func BenchmarkMulticastModes(b *testing.B) {
	var localFwd, relayFwd float64
	for i := 0; i < b.N; i++ {
		local := experiments.RunMulticast(int64(i+1), true, 5)
		relay := experiments.RunMulticast(int64(i+1), false, 5)
		localFwd = float64(local.RouterForwards)
		relayFwd = float64(relay.RouterForwards)
	}
	b.ReportMetric(localFwd, "local-forwards")
	b.ReportMetric(relayFwd, "relay-forwards")
}

// BenchmarkDualMobile — §1: both endpoints mobile, survival check.
func BenchmarkDualMobile(b *testing.B) {
	var ok float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunDualMobile(int64(i + 1))
		ok = bool01(r.Survived)
		if !r.Established {
			b.Fatal("dual-mobile session failed to establish")
		}
	}
	b.ReportMetric(ok, "survived")
}

// BenchmarkPathAsymmetry — §2: one-way latency ratio between the two
// directions of a Figure-1 conversation over a slow home access link.
func BenchmarkPathAsymmetry(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunAsymmetry(int64(i + 1))
		if !r.Delivered {
			b.Fatal("echo failed")
		}
		ratio = r.Ratio
	}
	b.ReportMetric(ratio, "oneway-ratio")
}

// BenchmarkSharedResourceLoad — §3.2: router work per conversation by
// correspondent capability.
func BenchmarkSharedResourceLoad(b *testing.B) {
	var conv, aware, near float64
	for i := 0; i < b.N; i++ {
		rows := experiments.RunSavings(int64(i + 1))
		conv = float64(rows[0].RouterForwards)
		aware = float64(rows[1].RouterForwards)
		near = float64(rows[2].RouterForwards)
	}
	b.ReportMetric(conv, "conventional-fwds")
	b.ReportMetric(aware, "aware-fwds")
	b.ReportMetric(near, "samesegment-fwds")
}

// BenchmarkBroadcastARP512 — E14's crowded cell in miniature: on a
// segment of 512 hosts, one host resolves an address nobody holds (a
// visitor that left), so each op is one broadcast ARP request that every
// other host hears, then a timeout. Its cost must not grow with the
// number of hosts: the segment learns the request's sender once, and no
// host has anything else to do with it.
func BenchmarkBroadcastARP512(b *testing.B) {
	const hosts = 512
	sim := netsim.NewSim(1)
	seg := sim.NewSegment("cell", netsim.SegmentOpts{Latency: 1e6})
	prefix := ipv4.MustParsePrefix("10.1.0.0/16")
	var gw *stack.Host
	for k := 0; k < hosts; k++ {
		h := stack.NewHost(sim, fmt.Sprintf("h%d", k))
		h.AddIface("eth0", seg, prefix.Host(k+1), prefix)
		if gw == nil {
			gw = h
		}
	}
	gw.ARPRetries = 1
	gw.ARPTimeout = 1e6
	pkt := ipv4.Packet{Header: ipv4.Header{Protocol: 99, Dst: prefix.Host(60000)}}
	resolve := func() {
		if err := gw.SendIP(pkt); err != nil {
			b.Fatal(err)
		}
		sim.Sched.Run()
	}
	resolve() // the first broadcast builds the segment's table
	delivered := seg.Delivered
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolve()
	}
	b.ReportMetric(float64(seg.Delivered-delivered)/float64(b.N), "hearers/op")
}

func bool01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
