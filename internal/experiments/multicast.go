package experiments

import (
	"fmt"
	"strings"

	"mob4x4/internal/assert"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/stack"
)

// MulticastResult compares the two ways a roaming mobile host can receive
// a multicast stream (Section 6.4): joining through the real physical
// interface on the visited network, or having the home agent join on its
// behalf and tunnel every packet.
type MulticastResult struct {
	Mode           string // "local-join" or "home-relay"
	PacketsSent    int
	PacketsGot     int
	Tunneled       uint64 // packets that crossed the MH's tunnel
	RouterForwards uint64 // router work caused by the stream
}

// RunMulticast executes the §6.4 comparison. In local-join mode the
// stream source sits on the visited LAN; in home-relay mode it sits on
// the home LAN and the agent relays.
func RunMulticast(seed int64, localJoin bool, packets int) MulticastResult {
	res := MulticastResult{Mode: "home-relay", PacketsSent: packets}
	if localJoin {
		res.Mode = "local-join"
	}
	s := Build(Options{Seed: seed})
	s.Roam()

	group := ipv4.MustParseAddr("239.9.9.9")
	var got int
	s.MHHost.Handle(103, func(_ *stack.Iface, pkt ipv4.Packet) { got++ })

	var sender *stack.Host
	var sIfc *stack.Iface
	if localJoin {
		s.MN.JoinMulticastLocal(group)
		sender = stack.NewHost(s.Net.Sim, "mcast-src")
		sIfc = sender.AddIface("eth0", s.VisitA.Seg, s.VisitA.NextAddr(), s.VisitA.Prefix)
	} else {
		if err := s.HA.RelayGroup(group, s.MN.Home()); err != nil {
			assert.Unreachable("multicast: relay group on home agent: %v", err)
		}
		sender = stack.NewHost(s.Net.Sim, "mcast-src")
		sIfc = sender.AddIface("eth0", s.HomeLAN.Seg, s.HomeLAN.NextAddr(), s.HomeLAN.Prefix)
	}

	fwdBefore := s.Net.Sim.Metrics.IPForwarded.Value()
	tunBefore := s.MN.Stats.Decaps
	for i := 0; i < packets; i++ {
		_ = sender.SendMulticast(sIfc, ipv4.Packet{
			Header:  ipv4.Header{Protocol: 103, Src: sIfc.Addr(), Dst: group},
			Payload: make([]byte, 512),
		})
		s.Net.RunFor(100 * Millisecond)
	}
	s.Net.RunFor(2 * Second)

	res.PacketsGot = got
	res.Tunneled = s.MN.Stats.Decaps - tunBefore
	res.RouterForwards = s.Net.Sim.Metrics.IPForwarded.Value() - fwdBefore
	return res
}

// MulticastTable renders the comparison.
func MulticastTable(rows []MulticastResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 6.4 — multicast for a roaming host (stream of 512B datagrams)\n")
	fmt.Fprintf(&b, "  %-12s %8s %8s %10s %16s\n", "mode", "sent", "got", "tunneled", "router-forwards")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %8d %8d %10d %16d\n",
			r.Mode, r.PacketsSent, r.PacketsGot, r.Tunneled, r.RouterForwards)
	}
	return b.String()
}

// TraceResult is one traceroute rendering for the trace subcommand.
type TraceResult struct {
	Label string
	Hops  []icmphost.TracerouteHop
}

// RunTraceroutes runs a TTL sweep from the far correspondent to the
// mobile host's home address, before and after roaming — showing how the
// tunnel hides the second half of the journey from the prober.
func RunTraceroutes(seed int64) []TraceResult {
	mk := func(label string, roam bool) TraceResult {
		s := Build(Options{Seed: seed})
		for _, name := range []string{"homeGW", "visitGWA", "visitGWB", "farGW", "bb0", "bb1", "bb2"} {
			if r := s.Net.Router(name); r != nil {
				icmphost.EnableRouterErrors(r)
			}
		}
		if err := icmphost.RespondToProbes(s.MHHost); err != nil {
			assert.Unreachable("multicast: enable probe responder: %v", err)
		}
		if roam {
			s.Roam()
		}
		var hops []icmphost.TracerouteHop
		done := false
		icmphost.Traceroute(s.CHFar, s.CHFarIC, s.MN.Home(), 16, &hops, func() { done = true })
		s.Net.RunFor(60 * Second)
		_ = done
		return TraceResult{Label: label, Hops: hops}
	}
	return []TraceResult{
		mk("MH at home", false),
		mk("MH roamed (tunnel via HA)", true),
	}
}

// TraceTable renders traceroutes.
func TraceTable(rows []TraceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "traceroute chFar -> MH home address\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "\n%s:\n", r.Label)
		for _, h := range r.Hops {
			from := "*"
			if !h.From.IsZero() {
				from = h.From.String()
			}
			mark := ""
			if h.Reached {
				mark = "  <- destination"
			}
			fmt.Fprintf(&b, "  %2d  %-16s%s\n", h.TTL, from, mark)
		}
	}
	return b.String()
}
