package mobileip

import (
	"fmt"

	"mob4x4/internal/core"
	"mob4x4/internal/encap"
	"mob4x4/internal/icmp"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/vtime"
)

// CorrespondentConfig configures a correspondent host's mobility
// awareness.
type CorrespondentConfig struct {
	// Codec selects tunnel encapsulation for In-DE (default IPIP).
	Codec encap.Codec
	// CanDecapsulate gives the host the "recent versions of Linux"
	// capability of Section 6.1: it accepts tunneled packets addressed
	// to itself (enabling the mobile host's Out-DE) without being
	// otherwise mobile-aware.
	CanDecapsulate bool
	// MobileAware enables the full Section 7.2 behavior: learn bindings
	// from ICMP notices (and DNS), encapsulate directly to care-of
	// addresses (In-DE), detect same-segment mobile hosts (In-DH).
	MobileAware bool
}

// CorrespondentStats counts correspondent-side mobility activity.
type CorrespondentStats struct {
	BindingsLearned uint64
	BindingsExpired uint64
	SentInDE        uint64
	SentInDH        uint64
	Encaps          uint64 // In-DE tunnel encapsulations
	Decaps          uint64 // Out-DE tunnel decapsulations
}

// Correspondent wraps a host with the correspondent-side choices of
// Section 7.2. A conventional 1996 host is a Correspondent with both
// capability flags false (the wrapper then does nothing at all).
type Correspondent struct {
	host   *stack.Host
	cfg    CorrespondentConfig
	policy *core.CorrespondentPolicy
	expiry map[ipv4.Addr]*vtime.Timer

	// inDH and inDE are the two virtual-interface routes the policy
	// hands out, built once; their Output closures re-resolve the
	// binding for the packet's destination at call time (Output runs
	// synchronously from the route decision, so the binding cannot
	// change in between).
	inDH stack.Route
	inDE stack.Route

	// OnLearn, when non-nil, observes every accepted binding learn —
	// ICMP notice, DNS, or pushed binding update — after the policy is
	// updated. E17's recovery-latency monitor hangs here so both learn
	// paths feed one histogram.
	OnLearn func(b core.Binding)

	Stats CorrespondentStats
}

// NewCorrespondent installs correspondent-side mobility support on host.
// ic may be nil when the host has no ICMP endpoint; binding notices are
// then never learned.
func NewCorrespondent(host *stack.Host, ic *icmphost.ICMP, cfg CorrespondentConfig) *Correspondent {
	if cfg.Codec == nil {
		cfg.Codec = encap.IPIP{}
	}
	c := &Correspondent{
		host:   host,
		cfg:    cfg,
		policy: core.NewCorrespondentPolicy(cfg.MobileAware),
		expiry: make(map[ipv4.Addr]*vtime.Timer),
	}
	host.Sim().Metrics.AddSource(c)
	c.inDH = stack.Route{Name: "mip-ch-samelink", Output: c.sameLinkOutput}
	c.inDE = stack.Route{Name: "mip-ch-tunnel", Output: c.tunnelOutput}
	if cfg.CanDecapsulate || cfg.MobileAware {
		host.Handle(cfg.Codec.Proto(), c.handleTunneled)
	}
	if cfg.MobileAware {
		host.RouteOverride = c.routeOverride
		if ic != nil {
			ic.OnBinding = func(src ipv4.Addr, msg icmp.Message) {
				c.LearnBinding(core.Binding{Home: msg.Home, CareOf: msg.CareOf}, msg.Lifetime)
			}
		}
	}
	return c
}

// Host returns the wrapped host.
func (c *Correspondent) Host() *stack.Host { return c.host }

// Report implements metrics.Source.
func (c *Correspondent) Report(a *metrics.Adder) {
	a.Counter("ch/bindings_learned", c.Stats.BindingsLearned)
	a.Counter("ch/sent_in_de", c.Stats.SentInDE)
	a.Counter("ch/sent_in_dh", c.Stats.SentInDH)
	a.Counter("ch/encaps", c.Stats.Encaps)
	a.Counter("ch/decaps", c.Stats.Decaps)
}

// Policy exposes the Section 7.2 decision state.
func (c *Correspondent) Policy() *core.CorrespondentPolicy { return c.policy }

// LearnBinding records a mobile host's location with a lifetime in
// seconds (from an ICMP binding notice, a DNS CA record, or test setup).
func (c *Correspondent) LearnBinding(b core.Binding, lifetimeSec uint16) {
	if !c.cfg.MobileAware {
		return
	}
	c.policy.LearnBinding(b)
	c.Stats.BindingsLearned++
	// Same-segment detection: if the care-of address is on one of our
	// own links, In-DH beats In-DE.
	onLink := false
	for _, ifc := range c.host.Ifaces() {
		if ifc.Prefix().Bits > 0 && ifc.Prefix().Contains(b.CareOf) && ifc.NIC().Attached() {
			onLink = true
			break
		}
	}
	c.policy.NoteOnLink(b.Home, onLink)
	if c.OnLearn != nil {
		c.OnLearn(b)
	}
	t := c.expiry[b.Home]
	t.Stop()
	if lifetimeSec > 0 {
		if t == nil {
			home := b.Home
			t = vtime.NewTimer(func() {
				c.policy.ForgetBinding(home)
				c.policy.NoteOnLink(home, false)
				c.Stats.BindingsExpired++
			})
			c.expiry[home] = t
		}
		t.Reset(c.host.Sched(), vtime.Duration(lifetimeSec)*1e9)
	}
	if tr := c.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventRegister, Time: c.host.Sim().Now(), Where: c.host.Name(),
			Detail: fmt.Sprintf("learned binding %s -> %s (on-link=%v)", b.Home, b.CareOf, onLink),
		})
	}
}

// ForgetBinding drops what we know about a mobile host (delivery failure).
func (c *Correspondent) ForgetBinding(home ipv4.Addr) {
	c.expiry[home].Stop()
	delete(c.expiry, home)
	c.policy.ForgetBinding(home)
	c.policy.NoteOnLink(home, false)
}

// handleTunneled accepts packets tunneled directly to us by a mobile host
// (Out-DE) and re-injects the inner packet. The inner destination is one
// of our own addresses, so it is delivered locally. This is the
// "automatic decapsulation" capability whose spoofing risk Section 6.1
// flags — the simulation exposes exactly that property in its tests.
func (c *Correspondent) handleTunneled(ifc *stack.Iface, outer ipv4.Packet) {
	inner, err := c.cfg.Codec.Decapsulate(outer)
	if err != nil {
		return
	}
	c.host.Sim().Metrics.Decaps.Inc()
	c.Stats.Decaps++
	if tr := c.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventDecap, Time: c.host.Sim().Now(), Where: c.host.Name(),
			PktID:  inner.TraceID,
			Detail: fmt.Sprintf("decap from %s: inner %s > %s", outer.Src, inner.Src, inner.Dst),
		})
	}
	_ = c.host.Resubmit(inner)
}

// routeOverride implements the smart correspondent's send path: if we
// know the destination is a mobile host, bypass the home agent (Figure 5).
func (c *Correspondent) routeOverride(pkt ipv4.Packet) (stack.Route, ipv4.Addr, bool) {
	mode := c.policy.ModeFor(pkt.Dst, false)
	switch mode {
	case core.InDH:
		// Same segment: plain packet to the home address, link-
		// delivered to the care-of MAC. "The only difference is in the
		// link-layer destination."
		if _, ok := c.policy.Binding(pkt.Dst); !ok {
			return stack.Route{}, pkt.Src, false
		}
		c.Stats.SentInDH++
		return c.inDH, pkt.Src, true
	case core.InDE:
		if _, ok := c.policy.Binding(pkt.Dst); !ok {
			return stack.Route{}, pkt.Src, false
		}
		c.Stats.SentInDE++
		if pkt.Src.IsZero() {
			return c.inDE, c.host.SourceForDestinationPlain(pkt.Dst), true
		}
		return c.inDE, pkt.Src, true
	default:
		return stack.Route{}, pkt.Src, false // In-IE: plain IP, the HA does the work
	}
}

// sameLinkOutput is the In-DH virtual interface: the packet keeps the
// mobile host's home address as its IP destination but is link-delivered
// to the care-of address on the shared segment.
func (c *Correspondent) sameLinkOutput(p ipv4.Packet) {
	b, ok := c.policy.Binding(p.Dst)
	if ok {
		for _, ifc := range c.host.Ifaces() {
			if ifc.Prefix().Bits > 0 && ifc.Prefix().Contains(b.CareOf) {
				_ = c.host.SendIPLinkDirect(ifc, b.CareOf, p)
				return
			}
		}
	}
	// Segment changed underneath us: fall back to plain IP.
	p2 := p
	p2.TraceID = 0
	_ = c.host.SendIP(p2)
}

// tunnelOutput is the In-DE virtual interface: encapsulate straight to
// the care-of address (Figure 5), bypassing the home agent. The tunnel
// payload is built in a pooled buffer; Resubmit copies it onward before
// returning, so the buffer is recycled immediately.
func (c *Correspondent) tunnelOutput(inner ipv4.Packet) {
	b, ok := c.policy.Binding(inner.Dst)
	if !ok {
		p2 := inner
		p2.TraceID = 0
		_ = c.host.SendIP(p2)
		return
	}
	if inner.TTL == 0 {
		inner.TTL = ipv4.DefaultTTL
	}
	careOf := b.CareOf
	buf := netsim.GetBuf()
	// The binding names the inner destination's home address, so a
	// home-aware codec (compact) can elide the inner destination from
	// the tunnel header entirely.
	outer, err := c.cfg.Codec.AppendEncap(inner, inner.Src, careOf, b.Home, buf.B)
	if err != nil {
		netsim.PutBuf(buf)
		return
	}
	c.host.Sim().Metrics.Encaps.Inc()
	c.Stats.Encaps++
	if tr := c.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventEncap, Time: c.host.Sim().Now(), Where: c.host.Name(),
			PktID:  inner.TraceID,
			Detail: chTunnelDetail(inner.Src, careOf, inner.Dst),
		})
	}
	_ = c.host.Resubmit(outer)
	netsim.PutBuf(buf)
}
