package stack

import (
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
)

// FilterPolicy models the boundary-router behavior described in Section
// 3.1 of the paper. A domain's boundary router knows which prefixes are
// inside the domain; its interfaces are tagged inside/outside (Iface.
// Outside). Two independent checks apply to packets crossing the boundary:
//
//   - IngressSourceFilter: a packet arriving on an OUTSIDE interface whose
//     source address claims to be INSIDE the domain is dropped. This is
//     the check in Figure 2 that discards a mobile host's Out-DH replies
//     ("a packet coming from outside the home network, with a source
//     address claiming that the packet originates from a machine inside").
//
//   - EgressSourceFilter: a packet leaving via an OUTSIDE interface whose
//     source address is NOT inside the domain is dropped. This is the
//     "transit traffic forbidden" / invalid-source policy that makes a
//     visited network discard Out-DH packets carrying a foreign (home)
//     source address.
type FilterPolicy struct {
	// DomainPrefixes enumerate the address space considered "inside".
	DomainPrefixes      []ipv4.Prefix
	IngressSourceFilter bool
	EgressSourceFilter  bool

	// Exemptions lists addresses never filtered (e.g. a firewall
	// configured to accept tunnels addressed to the home agent would be
	// modelled by the tunnel's outer addresses simply passing the source
	// checks, so this is rarely needed; it exists for experiments that
	// poke at policy granularity).
	Exemptions []ipv4.Addr

	// Drops counts discarded packets by direction.
	IngressDrops uint64
	EgressDrops  uint64
}

// Inside reports whether addr belongs to the domain.
func (f *FilterPolicy) Inside(addr ipv4.Addr) bool {
	for _, p := range f.DomainPrefixes {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

func (f *FilterPolicy) exempt(addr ipv4.Addr) bool {
	for _, a := range f.Exemptions {
		if a == addr {
			return true
		}
	}
	return false
}

// checkIngress is called for packets received on iface before local
// delivery or forwarding. It reports whether the packet may proceed.
func (f *FilterPolicy) checkIngress(iface *Iface, pkt *ipv4.Packet) bool {
	if f == nil || !f.IngressSourceFilter || !iface.Outside {
		return true
	}
	if f.exempt(pkt.Src) {
		return true
	}
	if f.Inside(pkt.Src) {
		f.IngressDrops++
		return false
	}
	return true
}

// checkEgress is called for packets about to be transmitted via iface.
func (f *FilterPolicy) checkEgress(iface *Iface, pkt *ipv4.Packet) bool {
	if f == nil || !f.EgressSourceFilter || !iface.Outside {
		return true
	}
	if f.exempt(pkt.Src) {
		return true
	}
	if !f.Inside(pkt.Src) {
		f.EgressDrops++
		return false
	}
	return true
}

func (h *Host) traceFilterDrop(direction string, iface *Iface, pkt *ipv4.Packet) {
	h.metrics.Drop(metrics.DropFilter)
	if tr := h.sim.Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventDropFilter, Time: h.sim.Now(), Where: h.name,
			PktID:  pkt.TraceID,
			Detail: filterDetail(direction, iface.nic.Name(), pkt.Src, pkt.Dst),
		})
	}
}
