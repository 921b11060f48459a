package mobileip

import (
	"fmt"

	"mob4x4/internal/encap"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
	"mob4x4/internal/vtime"
)

// ForeignAgentConfig tunes a foreign agent.
type ForeignAgentConfig struct {
	// Codec must match the home agents' tunnel encapsulation (default
	// IPIP).
	Codec encap.Codec
	// VisitorLifetime bounds how long a visitor entry survives without
	// re-registration, in seconds (default 300).
	VisitorLifetime uint16
}

// ForeignAgentStats counts agent activity.
type ForeignAgentStats struct {
	Relayed     uint64 // registration requests relayed to home agents
	Replies     uint64 // registration replies relayed back
	Delivered   uint64 // decapsulated packets delivered to visitors
	BadRequests uint64
	AuthReplays uint64 // authenticated requests suppressed at the relay: duplicate ID
	AuthStale   uint64 // authenticated requests suppressed at the relay: ID behind the window
	Crashes     uint64
	Restarts    uint64
	Decaps      uint64 // tunnel decapsulations, for visitors or not
}

// ForeignAgent implements the IETF-style agent the paper contrasts its
// self-sufficient design with (Section 2): visiting mobile hosts keep
// their home address, register through the agent, and receive their
// tunneled packets via the agent, which "decapsulates them and delivers
// the enclosed packet to the mobile host" over the final link-layer hop
// (the In-DH delivery technique, Section 5).
//
// The paper's critique — agents restrict the mobile host's options (no
// Out-DT, no choice of decapsulator) — is what BenchmarkForeignAgent
// quantifies.
type ForeignAgent struct {
	host  *stack.Host
	iface *stack.Iface
	cfg   ForeignAgentConfig
	sock  *stack.UDPSocket

	visitors map[ipv4.Addr]*visitor // keyed by home address

	// windows holds a best-effort identification window per visiting
	// home address, applied only to authenticated requests the agent
	// relays. The agent holds no keys, so this is duplicate suppression,
	// not authentication — see DESIGN.md §11 for what it does and does
	// not defend. Soft state: lost on Crash, like the visitor table.
	windows map[ipv4.Addr]*replayWindow

	// crashed marks the agent as dead (visitor table lost, handlers
	// inert) until Restart.
	crashed bool

	Stats ForeignAgentStats

	reg *metrics.Registry
}

type visitor struct {
	homeAgent ipv4.Addr
	port      uint16 // visitor's registration source port, for the reply
	expiry    *vtime.Timer
}

// NewForeignAgent starts a foreign agent on host serving the segment of
// iface.
func NewForeignAgent(host *stack.Host, iface *stack.Iface, cfg ForeignAgentConfig) (*ForeignAgent, error) {
	if cfg.Codec == nil {
		cfg.Codec = encap.IPIP{}
	}
	if cfg.VisitorLifetime == 0 {
		cfg.VisitorLifetime = 300
	}
	fa := &ForeignAgent{
		host:     host,
		iface:    iface,
		cfg:      cfg,
		visitors: make(map[ipv4.Addr]*visitor),
		windows:  make(map[ipv4.Addr]*replayWindow),
		reg:      host.Sim().Metrics,
	}
	fa.reg.AddSource(fa)
	// A foreign agent routes on behalf of its visitors: their outgoing
	// packets use it as the default gateway, so the host must forward.
	host.Forwarding = true
	sock, err := host.OpenUDP(ipv4.Zero, udp.PortRegistration, fa.handleRegistration)
	if err != nil {
		return nil, fmt.Errorf("mobileip: foreign agent: %w", err)
	}
	fa.sock = sock
	host.Handle(cfg.Codec.Proto(), fa.handleTunneled)
	return fa, nil
}

// Addr returns the agent's address — the care-of address its visitors
// share.
func (fa *ForeignAgent) Addr() ipv4.Addr { return fa.iface.Addr() }

// Visitors returns the number of registered visitors.
func (fa *ForeignAgent) Visitors() int { return len(fa.visitors) }

// Report implements metrics.Source. The agent only ever decapsulates,
// so its encapsulation count is reported as a constant zero.
func (fa *ForeignAgent) Report(a *metrics.Adder) {
	a.Counter("fa/encaps", 0)
	a.Counter("fa/decaps", fa.Stats.Decaps)
}

// Crash models the agent dying mid-service: the visitor table (and its
// expiry timers) is lost and both the registration relay and the tunnel
// endpoint go dark until Restart. Visitors discover this the hard way —
// relayed registrations stop being answered — and must give up and
// re-attach elsewhere (or re-register once the agent returns).
func (fa *ForeignAgent) Crash() {
	if fa.crashed {
		return
	}
	fa.crashed = true
	fa.Stats.Crashes++
	//mob4x4vet:allow mapiter Stop removes by handle and pop order is (time,seq); stop order cannot leak
	for _, v := range fa.visitors {
		v.expiry.Stop()
	}
	fa.visitors = make(map[ipv4.Addr]*visitor)
	fa.windows = make(map[ipv4.Addr]*replayWindow)
	if tr := fa.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventNote, Time: fa.host.Sim().Now(), Where: fa.host.Name(),
			Detail: "foreign agent crashed: visitor table lost",
		})
	}
}

// Restart brings a crashed agent back with an empty visitor table.
func (fa *ForeignAgent) Restart() {
	if !fa.crashed {
		return
	}
	fa.crashed = false
	fa.Stats.Restarts++
	if tr := fa.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventNote, Time: fa.host.Sim().Now(), Where: fa.host.Name(),
			Detail: "foreign agent restarted",
		})
	}
}

// Crashed reports whether the agent is currently down.
func (fa *ForeignAgent) Crashed() bool { return fa.crashed }

// handleRegistration relays visitor registrations to their home agents
// and home-agent replies back to the visitors.
func (fa *ForeignAgent) handleRegistration(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
	if fa.crashed {
		return
	}
	if len(payload) < 1 {
		fa.Stats.BadRequests++
		return
	}
	switch payload[0] {
	case TypeRegistrationRequest:
		m, _, hasAuth, ok := ParseRequest(payload)
		if !ok {
			fa.Stats.BadRequests++
			return
		}
		if hasAuth {
			// An authenticated request must be relayed byte-for-byte:
			// rewriting the care-of address would break a MAC the agent
			// cannot recompute (the key lives at the MN and HA only).
			// The visitor already set CareOf to our address and the
			// via-FA flag before signing; anything else is malformed.
			if m.CareOf != fa.Addr() || m.Flags&FlagViaForeignAgent == 0 {
				fa.Stats.BadRequests++
				return
			}
			// Best-effort duplicate suppression at the relay, keyed on
			// the identification alone (unverifiable without the key):
			// exact replays and far-stale IDs die one hop early instead
			// of burdening the home uplink.
			w := fa.windows[m.Home]
			if w == nil {
				w = &replayWindow{}
				fa.windows[m.Home] = w
			}
			switch w.check(m.ID) {
			case Replay:
				fa.Stats.AuthReplays++
				fa.reg.Drop(metrics.DropAuthReplay)
				return
			case Stale:
				fa.Stats.AuthStale++
				fa.reg.Drop(metrics.DropAuthStaleID)
				return
			}
		} else {
			// Legacy visitor: substitute our address as the care-of
			// address and relay to the home agent.
			m.CareOf = fa.Addr()
			m.Flags |= FlagViaForeignAgent
		}
		home := m.Home
		v := fa.visitors[home]
		if v == nil {
			v = &visitor{expiry: vtime.NewTimer(func() { delete(fa.visitors, home) })}
			fa.visitors[home] = v
		}
		v.homeAgent = m.HomeAgent
		v.port = srcPort
		v.expiry.Reset(fa.host.Sched(), vtime.Duration(fa.cfg.VisitorLifetime)*1e9)
		if m.IsDeregistration() {
			v.expiry.Stop()
			delete(fa.visitors, home)
		}
		fa.Stats.Relayed++
		if hasAuth {
			// SendToFrom copies the payload synchronously, so relaying
			// the received bytes directly is safe.
			_ = fa.sock.SendToFrom(fa.Addr(), m.HomeAgent, udp.PortRegistration, payload)
			return
		}
		// Relay from a pooled buffer; SendToFrom copies synchronously.
		buf := netsim.GetBuf()
		_ = fa.sock.SendToFrom(fa.Addr(), m.HomeAgent, udp.PortRegistration, m.AppendMarshal(buf.B))
		netsim.PutBuf(buf)
	case TypeRegistrationReply:
		m, _, _, ok := ParseReply(payload)
		if !ok {
			fa.Stats.BadRequests++
			return
		}
		// From a home agent: forward to the visitor over the local
		// link. The visitor's home address is not routable here, so the
		// delivery is link-direct (ARP resolves the visitor's answer
		// for its own home address on this segment).
		v, known := fa.visitors[m.Home]
		if !known {
			// Reply for a visitor we never saw; ignore.
			fa.Stats.BadRequests++
			return
		}
		fa.Stats.Replies++
		d := udp.Datagram{SrcPort: udp.PortRegistration, DstPort: v.port, Payload: payload}
		buf := netsim.GetBuf()
		b, err := d.AppendMarshal(fa.Addr(), m.Home, buf.B)
		if err != nil {
			netsim.PutBuf(buf)
			return
		}
		_ = fa.host.SendIPLinkDirect(fa.iface, m.Home, ipv4.Packet{
			Header:  ipv4.Header{Protocol: ipv4.ProtoUDP, Src: fa.Addr(), Dst: m.Home},
			Payload: b,
		})
		netsim.PutBuf(buf)
	default:
		fa.Stats.BadRequests++
	}
}

// handleTunneled decapsulates packets tunneled to the agent and delivers
// the inner packet to the visiting mobile host in a single link-layer
// hop.
func (fa *ForeignAgent) handleTunneled(ifc *stack.Iface, outer ipv4.Packet) {
	if fa.crashed {
		return
	}
	inner, err := fa.cfg.Codec.Decapsulate(outer)
	if err != nil {
		return
	}
	fa.reg.Decaps.Inc()
	fa.Stats.Decaps++
	if _, known := fa.visitors[inner.Dst]; !known {
		return // not one of our visitors
	}
	fa.Stats.Delivered++
	if tr := fa.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventDecap, Time: fa.host.Sim().Now(), Where: fa.host.Name(),
			PktID:  inner.TraceID,
			Detail: fmt.Sprintf("FA delivers inner %s > %s on-link", inner.Src, inner.Dst),
		})
	}
	_ = fa.host.SendIPLinkDirect(fa.iface, inner.Dst, inner)
}
