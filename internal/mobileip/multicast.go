package mobileip

import (
	"fmt"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
)

// Multicast support for Section 6.4: "One of the goals of IP multicast is
// to reduce unnecessary replication of network traffic. Tunneling
// multicast packets from the home network to the visited network is
// therefore a little self-defeating. It would be better if the multicast
// application were able to join the multicast group through its real
// physical interface on the current local network."
//
// Both options are implemented so the experiment can quantify the
// difference:
//
//   - MobileNode.JoinMulticastLocal — the paper's recommendation: join on
//     the visited network's physical interface (no Mobile IP involved).
//   - HomeAgent.RelayGroup — the "virtual interface on its distant home
//     network" alternative: the agent joins on the home segment on the
//     mobile host's behalf and tunnels every group packet to the care-of
//     address.

// JoinMulticastLocal subscribes the mobile host to group on its physical
// interface at the current location.
func (mn *MobileNode) JoinMulticastLocal(group ipv4.Addr) {
	mn.host.JoinGroup(mn.ifc, group)
}

// RelayGroup makes the home agent join the group on the home segment on
// behalf of the registered mobile host with the given home address, and
// tunnel every packet of that group through the binding. Returns an error
// if the host is not registered.
func (ha *HomeAgent) RelayGroup(group ipv4.Addr, home ipv4.Addr) error {
	if !group.IsMulticast() {
		return fmt.Errorf("mobileip: %s is not a multicast group", group)
	}
	if ha.bindings.get(home) == nil {
		return fmt.Errorf("mobileip: no binding for %s", home)
	}
	if ha.relayGroups == nil {
		ha.relayGroups = make(map[ipv4.Addr][]ipv4.Addr)
		ha.host.MulticastTap = ha.tapMulticast
	}
	ha.relayGroups[group] = append(ha.relayGroups[group], home)
	ha.host.JoinGroup(ha.iface, group)
	return nil
}

// StopRelayGroup removes the relay for (group, home).
func (ha *HomeAgent) StopRelayGroup(group ipv4.Addr, home ipv4.Addr) {
	subs := ha.relayGroups[group]
	out := subs[:0]
	for _, h := range subs {
		if h != home {
			out = append(out, h)
		}
	}
	if len(out) == 0 {
		delete(ha.relayGroups, group)
		ha.host.LeaveGroup(ha.iface, group)
	} else {
		ha.relayGroups[group] = out
	}
}

// tapMulticast intercepts group packets arriving on the home segment and
// tunnels them to each subscribed mobile host — the self-defeating
// replication the paper warns about, measured by the experiment.
func (ha *HomeAgent) tapMulticast(ifc *stack.Iface, pkt ipv4.Packet) bool {
	subs := ha.relayGroups[pkt.Dst]
	if len(subs) == 0 {
		return false
	}
	for _, home := range subs {
		b := ha.bindings.get(home)
		if b == nil {
			continue
		}
		// Relay fan-out builds each copy in a pooled buffer; Resubmit
		// copies it onward synchronously, so the buffer recycles per sub.
		buf := netsim.GetBuf()
		outer, err := ha.cfg.Codec.AppendEncap(pkt, ha.Addr(), b.careOf, b.home, buf.B)
		if err != nil {
			netsim.PutBuf(buf)
			continue
		}
		ha.host.Sim().Metrics.Encaps.Inc()
		ha.Stats.Encaps++
		// Group traffic is link-scoped (TTL 1); the tunnel is a fresh
		// unicast journey and needs its own TTL.
		outer.TTL = ipv4.DefaultTTL
		ha.Stats.MulticastRelayed++
		if tr := ha.host.Sim().Trace; tr.On() {
			tr.Record(netsim.Event{
				Kind: netsim.EventEncap, Time: ha.host.Sim().Now(), Where: ha.host.Name(),
				PktID:  pkt.TraceID,
				Detail: fmt.Sprintf("multicast relay %s -> %s via %s", pkt.Dst, home, b.careOf),
			})
		}
		_ = ha.host.Resubmit(outer)
		netsim.PutBuf(buf)
	}
	return true
}
