package routeopt

import (
	"fmt"

	"mob4x4/internal/encap"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
	"mob4x4/internal/vtime"
)

// RegionalAgentConfig tunes a regional gateway agent.
type RegionalAgentConfig struct {
	// HomeAgent is where reverse-tunneled (Out-IE) traffic from the
	// metro's mobile hosts is relayed onward.
	HomeAgent ipv4.Addr
	// Codec selects tunnel encapsulation (default IPIP). It must match
	// what the home agent and the metro's mobile nodes use.
	Codec encap.Codec
	// RequireAuth refuses regional registrations for homes with no
	// provisioned association.
	RequireAuth bool
}

// RegionalAgentStats counts gateway activity.
type RegionalAgentStats struct {
	Registrations   uint64
	Deregistrations uint64
	Denied          uint64
	DownRelayed     uint64 // HA→MN tunnels re-tunneled to the current cell
	UpRelayed       uint64 // MN→HA reverse tunnels relayed onward
	Expired         uint64 // lazily-expired bindings dropped at lookup
	NoBinding       uint64 // tunnels arriving for an unknown home
	Encaps          uint64 // re-tunnel encapsulations, both directions
	Decaps          uint64 // tunnel decapsulations, relayed or not
}

// regBinding is one regional binding. Expiry is lazy — checked at every
// lookup against vtime — so the agent needs no per-binding timers and a
// metro-wide handoff storm costs zero scheduler work beyond the
// registrations themselves.
type regBinding struct {
	careOf    ipv4.Addr
	lastID    uint64
	expiresAt vtime.Time
}

// RegionalAgent is the hierarchical tier's gateway foreign agent: it
// aggregates a metro's per-cell attachment points behind one stable
// care-of address. The home agent tunnels to the gateway; the gateway
// re-tunnels to whatever cell the mobile host is in right now. An
// intra-metro handoff therefore touches only the gateway's table — the
// home uplink never sees it.
//
// The registration protocol is the paper's own (mobileip.Request/Reply
// on UDP 434, with the same authentication extension); only the
// HomeAgent field names the gateway instead of the real home agent.
type RegionalAgent struct {
	host *stack.Host
	addr ipv4.Addr
	cfg  RegionalAgentConfig
	sock *stack.UDPSocket

	// table maps home addresses to regional bindings; keys holds their
	// provisioned associations. Point lookups only; never iterated.
	table map[ipv4.Addr]*regBinding
	keys  mobileip.Keys

	// OnRegister, when non-nil, observes every accepted regional
	// (re-)registration. The fleet's handoff bookkeeping hangs here.
	OnRegister func(home, careOf ipv4.Addr)

	Stats RegionalAgentStats
}

// NewRegionalAgent starts a gateway agent on host; addr is its stable
// regional care-of address (one of the host's own).
func NewRegionalAgent(host *stack.Host, addr ipv4.Addr, cfg RegionalAgentConfig) (*RegionalAgent, error) {
	if cfg.Codec == nil {
		cfg.Codec = encap.IPIP{}
	}
	reg := host.Sim().Metrics
	g := &RegionalAgent{
		host: host, addr: addr, cfg: cfg,
		table: make(map[ipv4.Addr]*regBinding),
		keys:  mobileip.NewKeys(reg, cfg.RequireAuth),
	}
	reg.AddSource(g)
	sock, err := host.OpenUDP(ipv4.Zero, udp.PortRegistration, g.handleRegistration)
	if err != nil {
		return nil, fmt.Errorf("routeopt: regional agent: %w", err)
	}
	g.sock = sock
	host.Handle(cfg.Codec.Proto(), g.handleTunneled)
	return g, nil
}

// Host returns the gateway's host.
func (g *RegionalAgent) Host() *stack.Host { return g.host }

// Addr returns the stable regional care-of address.
func (g *RegionalAgent) Addr() ipv4.Addr { return g.addr }

// Report implements metrics.Source.
func (g *RegionalAgent) Report(a *metrics.Adder) {
	a.Level("gfa/bindings", int64(len(g.table)))
	a.Counter("gfa/registrations", g.Stats.Registrations)
	a.Counter("gfa/down_relayed", g.Stats.DownRelayed)
	a.Counter("gfa/up_relayed", g.Stats.UpRelayed)
	a.Counter("gfa/encaps", g.Stats.Encaps)
	a.Counter("gfa/decaps", g.Stats.Decaps)
}

// Keys returns the gateway's security associations, provisioned per
// home like the home agent's.
func (g *RegionalAgent) Keys() *mobileip.Keys { return &g.keys }

// lookup returns home's live regional binding, lazily expiring it.
func (g *RegionalAgent) lookup(home ipv4.Addr) *regBinding {
	b := g.table[home]
	if b == nil {
		return nil
	}
	if g.host.Sched().Now() > b.expiresAt {
		delete(g.table, home)
		g.Stats.Expired++
		return nil
	}
	return b
}

// handleRegistration serves the regional registration protocol on UDP
// 434 — the same wire messages as the home agent's, addressed to the
// gateway.
func (g *RegionalAgent) handleRegistration(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
	req, _, hasAuth, ok := mobileip.ParseRequest(payload)
	if !ok {
		return
	}
	reply := mobileip.Reply{
		Code:      mobileip.CodeAccepted,
		Lifetime:  req.Lifetime,
		Home:      req.Home,
		HomeAgent: g.addr,
		ID:        req.ID,
	}
	switch {
	case req.HomeAgent != g.addr:
		reply.Code = mobileip.CodeDeniedNotHomeAgent
	default:
		// The home agent's rule: MAC first, then the window.
		v := g.keys.Check(req.Home, payload, hasAuth, req.ID)
		reply.Code = v.Code()
		switch v {
		case mobileip.Unknown:
			g.host.Sim().Metrics.Drop(metrics.DropAuthBadMAC)
		case mobileip.Unsigned:
			if b := g.table[req.Home]; b != nil && req.ID <= b.lastID {
				reply.Code = mobileip.CodeDeniedStaleID
			}
		}
	}
	if reply.Code == mobileip.CodeAccepted {
		g.admit(&req, reply.Lifetime)
	} else {
		g.Stats.Denied++
	}
	buf := netsim.GetBuf()
	rb := g.keys.Signer(req.Home).AppendAuth(reply.AppendMarshal(buf.B))
	_ = g.sock.SendToFrom(g.addr, src, srcPort, rb)
	netsim.PutBuf(buf)
}

// admit installs, refreshes, or clears a regional binding.
func (g *RegionalAgent) admit(req *mobileip.Request, lifetime uint16) {
	if req.IsDeregistration() {
		delete(g.table, req.Home)
		g.Stats.Deregistrations++
		return
	}
	b := g.table[req.Home]
	if b == nil {
		b = &regBinding{}
		g.table[req.Home] = b
	}
	b.careOf = req.CareOf
	b.lastID = req.ID
	b.expiresAt = g.host.Sched().Now().Add(vtime.Duration(lifetime) * 1e9)
	g.Stats.Registrations++
	if tr := g.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventRegister, Time: g.host.Sim().Now(), Where: g.host.Name(),
			Detail: fmt.Sprintf("regional binding %s -> %s lifetime=%ds", req.Home, req.CareOf, lifetime),
		})
	}
	if g.OnRegister != nil {
		g.OnRegister(req.Home, req.CareOf)
	}
}

// Close releases the registration socket (fleet cleanup). The tunnel
// pivot handler stays installed; the gateway keeps relaying whatever is
// already in flight, which is what a drain wants.
func (g *RegionalAgent) Close() { g.sock.Close() }

// CareOf returns the live regional binding for a home address.
func (g *RegionalAgent) CareOf(home ipv4.Addr) (ipv4.Addr, bool) {
	b := g.lookup(home)
	if b == nil {
		return ipv4.Zero, false
	}
	return b.careOf, true
}

// Bindings returns the number of (possibly lazily-stale) table entries.
func (g *RegionalAgent) Bindings() int { return len(g.table) }

// handleTunneled is the re-tunnel pivot, both directions:
//
//   - Down (HA→MN): the home agent tunneled to our stable address; the
//     inner destination is a registered home — re-tunnel to the cell
//     care-of address, sourced from the gateway (the mobile node
//     classifies gateway-sourced tunnels as In-IE).
//   - Up (MN→HA): a metro mobile host reverse-tunneled its Out-IE
//     traffic to us; the inner source is a registered home and the
//     outer source its current cell — relay the tunnel onward to the
//     real home agent, again sourced from the gateway (so the home
//     agent's care-of check sees the address it registered).
//
// Everything else is dropped: an open re-encapsulator would be the
// spoofing hole Section 6.1 warns about, one tier up.
func (g *RegionalAgent) handleTunneled(ifc *stack.Iface, outer ipv4.Packet) {
	inner, err := g.cfg.Codec.Decapsulate(outer)
	if err != nil {
		return
	}
	g.host.Sim().Metrics.Decaps.Inc()
	g.Stats.Decaps++
	if b := g.lookup(inner.Dst); b != nil {
		g.Stats.DownRelayed++
		g.retunnel(inner, b.careOf, inner.Dst)
		return
	}
	if b := g.lookup(inner.Src); b != nil && outer.Src == b.careOf {
		g.Stats.UpRelayed++
		g.retunnel(inner, g.cfg.HomeAgent, inner.Src)
		return
	}
	g.Stats.NoBinding++
}

// retunnel re-encapsulates inner toward dst. home is the binding's home
// address, handed to home-aware codecs (compact) for header elision.
func (g *RegionalAgent) retunnel(inner ipv4.Packet, dst, home ipv4.Addr) {
	buf := netsim.GetBuf()
	outer, err := g.cfg.Codec.AppendEncap(inner, g.addr, dst, home, buf.B)
	if err != nil {
		netsim.PutBuf(buf)
		return
	}
	g.host.Sim().Metrics.Encaps.Inc()
	g.Stats.Encaps++
	if tr := g.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventEncap, Time: g.host.Sim().Now(), Where: g.host.Name(),
			PktID:  inner.TraceID,
			Detail: fmt.Sprintf("retunnel %s -> %s: inner %s > %s", g.addr, dst, inner.Src, inner.Dst),
		})
	}
	_ = g.host.Resubmit(outer)
	netsim.PutBuf(buf)
}
