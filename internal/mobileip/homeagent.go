package mobileip

import (
	"fmt"

	"mob4x4/internal/encap"
	"mob4x4/internal/icmp"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
	"mob4x4/internal/vtime"
)

// HomeAgentConfig tunes a home agent.
type HomeAgentConfig struct {
	// Codec selects the tunnel encapsulation (default IPIP).
	Codec encap.Codec
	// SendBindingNotices makes the agent send the ICMP care-of
	// notification of Section 3.2 to correspondents whose packets it
	// forwards, so smart correspondents can switch to In-DE.
	SendBindingNotices bool
	// NoticeLifetime is the lifetime advertised in binding notices
	// (seconds; default 60).
	NoticeLifetime uint16
	// MaxBindings bounds the binding table (0 = unlimited).
	MaxBindings int
	// RequireAuth denies every registration that does not carry a valid
	// mobile-home authenticator, even for homes with no provisioned key
	// (those can never authenticate and are always refused). Without it,
	// authentication is enforced per home address: provisioning a key
	// (Keys().Provision) makes it mandatory for that home only, and
	// unprovisioned homes keep the legacy trust-the-sender behavior.
	RequireAuth bool
}

// HomeAgentStats counts agent activity.
type HomeAgentStats struct {
	Registrations    uint64
	Deregistrations  uint64
	Expiries         uint64
	Forwarded        uint64 // packets tunneled to mobile hosts
	ReverseRelayed   uint64 // reverse-tunneled packets forwarded for MHs
	NoticesSent      uint64
	BadRequests      uint64
	StaleRequests    uint64
	AuthBadMAC       uint64 // registrations denied: missing/forged/tampered authenticator
	AuthReplays      uint64 // registrations denied: identification replayed inside the window
	AuthStale        uint64 // registrations denied: identification behind the window
	MulticastRelayed uint64
	Crashes          uint64
	Restarts         uint64
	Encaps           uint64 // tunnel encapsulations (forwarded and relayed)
	Decaps           uint64 // reverse-tunnel decapsulations, relayed or not
}

// HomeAgent is "a machine on the mobile host's home network that acts as a
// proxy on behalf of the mobile host for the duration of its absence"
// (Section 2). It captures packets for registered mobile hosts with proxy
// ARP, tunnels them to the current care-of address, relays reverse-
// tunneled packets, and optionally tells smart correspondents where the
// mobile host is.
//
// The agent is built to hold thousands of bindings: registrations live
// in an indexed slot table (bindingTable) and expiries share a coarse
// timer wheel (expiryWheel) instead of one scheduler timer per binding,
// so a fleet-wide renewal storm costs O(1) scheduler work per renewal.
type HomeAgent struct {
	host  *stack.Host
	iface *stack.Iface // home-network interface used for proxy ARP
	cfg   HomeAgentConfig
	sock  *stack.UDPSocket

	bindings *bindingTable
	wheel    *expiryWheel
	// fireExpiry is the wheel's sweep callback, bound once so re-arming
	// the wheel timer never allocates a closure.
	fireExpiry func()

	// relayGroups maps multicast groups to the home addresses of mobile
	// hosts subscribed through this agent (Section 6.4 relay mode).
	relayGroups map[ipv4.Addr][]ipv4.Addr

	// keys holds the provisioned security associations, keyed by home
	// address. Keys survive Crash; their replay windows do not.
	keys Keys

	// crashed marks the agent as dead: all handlers drop their input
	// until Restart. Fault schedules use Crash/Restart to model agent
	// power loss with binding-table loss.
	crashed bool

	// OnBind, when non-nil, observes every accepted (non-deregistration)
	// registration after the binding lands in the table. E15's hijack
	// monitor hangs here so "no binding ever pointed at an attacker
	// care-of address" is checked at every install, not just at quiesce.
	OnBind func(home, careOf ipv4.Addr)

	// OnForward, when non-nil, observes every packet the agent tunnels
	// to a mobile host, keyed by (correspondent source, home address).
	// The HA-push route-optimization updater hangs here to learn which
	// correspondents are active per binding.
	OnForward func(correspondent, home ipv4.Addr)

	Stats HomeAgentStats
}

// NewHomeAgent starts a home agent on host, using iface as the
// home-network interface (the one on whose segment it proxy-ARPs for
// absent mobile hosts).
func NewHomeAgent(host *stack.Host, iface *stack.Iface, cfg HomeAgentConfig) (*HomeAgent, error) {
	if cfg.Codec == nil {
		cfg.Codec = encap.IPIP{}
	}
	if cfg.NoticeLifetime == 0 {
		cfg.NoticeLifetime = 60
	}
	reg := host.Sim().Metrics
	ha := &HomeAgent{
		host:     host,
		iface:    iface,
		cfg:      cfg,
		bindings: newBindingTable(),
		wheel:    newExpiryWheel(),
		keys:     NewKeys(reg, cfg.RequireAuth),
	}
	ha.fireExpiry = ha.sweepExpiries
	reg.AddSource(ha)
	sock, err := host.OpenUDP(ipv4.Zero, udp.PortRegistration, ha.handleRegistration)
	if err != nil {
		return nil, fmt.Errorf("mobileip: home agent: %w", err)
	}
	ha.sock = sock
	// Reverse tunnel: decapsulate tunneled packets addressed to us and
	// forward the inner packet on behalf of the mobile host (Figure 3).
	host.Handle(cfg.Codec.Proto(), ha.handleTunneled)
	return ha, nil
}

// Host returns the agent's host.
func (ha *HomeAgent) Host() *stack.Host { return ha.host }

// Addr returns the agent's address on the home network.
func (ha *HomeAgent) Addr() ipv4.Addr { return ha.iface.Addr() }

// Bindings returns the number of active bindings.
func (ha *HomeAgent) Bindings() int { return ha.bindings.len() }

// Report implements metrics.Source.
func (ha *HomeAgent) Report(a *metrics.Adder) {
	a.Level("ha/bindings", int64(ha.bindings.len()))
	a.Counter("ha/forwarded", ha.Stats.Forwarded)
	a.Counter("ha/reverse_relayed", ha.Stats.ReverseRelayed)
	a.Counter("ha/notices_sent", ha.Stats.NoticesSent)
	a.Counter("ha/expiries", ha.Stats.Expiries)
	a.Counter("ha/encaps", ha.Stats.Encaps)
	a.Counter("ha/decaps", ha.Stats.Decaps)
}

// CareOf returns the registered care-of address for a home address.
func (ha *HomeAgent) CareOf(home ipv4.Addr) (ipv4.Addr, bool) {
	b := ha.bindings.get(home)
	if b == nil {
		return ipv4.Zero, false
	}
	return b.careOf, true
}

// Crash models the agent losing power: every binding — and with it the
// proxy-ARP claims and address captures — vanishes, timers included, and
// the agent stops answering until Restart. The soft-state design means
// no stable storage exists to recover from; re-registration by the
// mobile hosts is the only way bindings come back (graceful restart).
func (ha *HomeAgent) Crash() {
	if ha.crashed {
		return
	}
	ha.crashed = true
	ha.Stats.Crashes++
	// Slot order is deterministic (a pure function of the registration
	// history), so crash cleanup stays trace-deterministic without the
	// sort the old map-keyed table needed.
	ha.bindings.forEach(func(b *binding) {
		ha.host.Unclaim(b.home)
		ha.iface.RemoveProxy(b.home)
	})
	ha.bindings.reset()
	ha.wheel.reset()
	ha.relayGroups = nil
	// Keys are configuration and survive; replay windows are soft state
	// and die with the crash (Restart's documented amnesty for in-flight
	// identifications).
	ha.keys.ForgetWindows()
	if tr := ha.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventNote, Time: ha.host.Sim().Now(), Where: ha.host.Name(),
			Detail: "home agent crashed: bindings lost",
		})
	}
}

// Restart brings a crashed agent back with an empty binding table. It
// re-learns bindings from the registrations (and renewal probes) mobile
// hosts keep sending; identification replay state died with the crash,
// so in-flight IDs from before the crash are accepted — the counter only
// ever advances on the mobile-host side.
func (ha *HomeAgent) Restart() {
	if !ha.crashed {
		return
	}
	ha.crashed = false
	ha.Stats.Restarts++
	if tr := ha.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventNote, Time: ha.host.Sim().Now(), Where: ha.host.Name(),
			Detail: "home agent restarted: awaiting re-registrations",
		})
	}
}

// Crashed reports whether the agent is currently down.
func (ha *HomeAgent) Crashed() bool { return ha.crashed }

// Keys returns the agent's security associations; provisioning a home
// makes authentication mandatory for it.
func (ha *HomeAgent) Keys() *Keys { return &ha.keys }

// handleRegistration serves UDP 434.
func (ha *HomeAgent) handleRegistration(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
	if ha.crashed {
		return
	}
	req, _, hasAuth, ok := ParseRequest(payload)
	if !ok {
		ha.Stats.BadRequests++
		return
	}
	reply := Reply{
		Code:      CodeAccepted,
		Lifetime:  req.Lifetime,
		Home:      req.Home,
		HomeAgent: ha.Addr(),
		ID:        req.ID,
	}
	switch {
	case req.HomeAgent != ha.Addr(), !ha.iface.Prefix().Contains(req.Home):
		// We can only proxy for hosts that actually live on our home
		// network segment. A misaddressed request never reaches the
		// keys: it neither advances a window nor counts a drop.
		reply.Code = CodeDeniedNotHomeAgent
	default:
		// The MAC must verify and the identification must clear the
		// replay window before the request is considered at all.
		v := ha.keys.Check(req.Home, payload, hasAuth, req.ID)
		reply.Code = v.Code()
		switch v {
		case Verified:
			ha.admit(&req, &reply)
		case Unsigned:
			// Legacy replay protection for unprovisioned homes: the
			// identification must advance with every request for the
			// binding ([Per96a] uses timestamps or nonces; the
			// simulation's mobile nodes use virtual-time stamps).
			if ha.isStale(&req) {
				reply.Code = CodeDeniedStaleID
				ha.Stats.StaleRequests++
			} else {
				ha.admit(&req, &reply)
			}
		case Replay:
			ha.Stats.AuthReplays++
		case Stale:
			ha.Stats.AuthStale++
		case Unknown:
			ha.host.Sim().Metrics.Drop(metrics.DropAuthBadMAC)
			fallthrough
		case BadMAC:
			ha.Stats.AuthBadMAC++
		}
	}
	// Marshal into a pooled buffer: SendToFrom copies the payload into
	// the datagram it builds before returning, so the buffer is recycled
	// immediately and a renewal storm's replies cost zero allocations.
	// Replies under a security association carry their own
	// authenticator, so a rogue relay cannot tamper with the granted
	// lifetime (or forge a denial) unnoticed.
	buf := netsim.GetBuf()
	rb := ha.keys.Signer(req.Home).AppendAuth(reply.AppendMarshal(buf.B))
	// An undeliverable reply is not an error: the mobile host retransmits.
	_ = ha.sock.SendToFrom(ha.Addr(), src, srcPort, rb)
	netsim.PutBuf(buf)
}

// admit is the tail every accepted-so-far request goes through:
// deregistration, capacity check, then registration.
func (ha *HomeAgent) admit(req *Request, reply *Reply) {
	if req.IsDeregistration() {
		ha.deregister(req.Home)
		ha.Stats.Deregistrations++
		return
	}
	if ha.cfg.MaxBindings > 0 && ha.bindings.len() >= ha.cfg.MaxBindings &&
		ha.bindings.get(req.Home) == nil {
		reply.Code = CodeDeniedUnreachable
		return
	}
	ha.register(req)
	ha.Stats.Registrations++
}

// isStale reports whether the request's identification fails to advance
// past the binding's last accepted one.
func (ha *HomeAgent) isStale(req *Request) bool {
	b := ha.bindings.get(req.Home)
	return b != nil && req.ID <= b.lastID
}

func (ha *HomeAgent) register(req *Request) {
	b, created := ha.bindings.getOrCreate(req.Home)
	if created {
		// Claim the home address: packets for the mobile host arriving
		// at this host are diverted to the tunnel forwarder.
		home := req.Home
		ha.host.Claim(home, func(ifc *stack.Iface, pkt ipv4.Packet) {
			ha.forwardToMobile(home, pkt)
		})
		// Gratuitous proxy ARP ([RFC1027]): neighbours on the home
		// segment now deliver the mobile host's frames to us.
		ha.iface.AddProxy(req.Home)
		ha.iface.GratuitousARP(req.Home)
	} else {
		// New binding generation: the wheel entry for the previous
		// lifetime goes stale (lazy deletion — nothing to cancel).
		b.gen++
	}
	b.careOf = req.CareOf
	b.lastID = req.ID
	if b.noticed == nil {
		b.noticed = make(map[ipv4.Addr]bool)
	} else {
		clear(b.noticed) // new generation, same map — renewals don't allocate
	}
	lifetime := vtime.Duration(req.Lifetime) * 1e9
	b.expiresAt = ha.host.Sched().Now().Add(lifetime)
	ha.wheel.schedule(ha.host.Sched(), b.expiresAt, req.Home, b.gen, ha.fireExpiry)
	if tr := ha.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventRegister, Time: ha.host.Sim().Now(), Where: ha.host.Name(),
			Detail: fmt.Sprintf("binding %s -> %s lifetime=%ds", req.Home, req.CareOf, req.Lifetime),
		})
	}
	if ha.OnBind != nil {
		ha.OnBind(req.Home, req.CareOf)
	}
}

// sweepExpiries is the wheel timer's callback: expire every binding in
// the due slot whose generation still matches (renewed bindings are
// skipped), then re-arm for the next slot.
func (ha *HomeAgent) sweepExpiries() {
	bucket := ha.wheel.take()
	for _, e := range bucket {
		b := ha.bindings.get(e.home)
		if b == nil || b.gen != e.gen {
			continue // renewed or deregistered since scheduling: stale
		}
		ha.Stats.Expiries++
		ha.deregister(e.home)
	}
	ha.wheel.recycle(bucket)
	ha.wheel.rearm(ha.host.Sched(), ha.fireExpiry)
}

func (ha *HomeAgent) deregister(home ipv4.Addr) {
	if !ha.bindings.remove(home) {
		return
	}
	ha.host.Unclaim(home)
	ha.iface.RemoveProxy(home)
	if tr := ha.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventRegister, Time: ha.host.Sim().Now(), Where: ha.host.Name(),
			Detail: fmt.Sprintf("binding %s cleared", home),
		})
	}
}

// forwardToMobile implements Figure 1's thick arrow: encapsulate the
// intercepted packet and send it to the care-of address.
func (ha *HomeAgent) forwardToMobile(home ipv4.Addr, pkt ipv4.Packet) {
	if ha.crashed {
		return
	}
	b := ha.bindings.get(home)
	if b == nil {
		return // binding raced away; packet is lost (higher layers recover)
	}
	// Build the tunnel payload in a pooled buffer; Resubmit copies it
	// onward before returning, so the buffer is recycled immediately.
	buf := netsim.GetBuf()
	// home names the inner destination, so a home-aware codec (compact)
	// can elide it from the tunnel header.
	outer, err := ha.cfg.Codec.AppendEncap(pkt, ha.Addr(), b.careOf, home, buf.B)
	if err != nil {
		netsim.PutBuf(buf)
		return
	}
	ha.host.Sim().Metrics.Encaps.Inc()
	ha.Stats.Encaps++
	ha.Stats.Forwarded++
	if tr := ha.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventEncap, Time: ha.host.Sim().Now(), Where: ha.host.Name(),
			PktID:  pkt.TraceID,
			Detail: tunnelDetail(ha.Addr(), b.careOf, pkt.Src, pkt.Dst),
		})
	}
	_ = ha.host.Resubmit(outer)
	netsim.PutBuf(buf)

	if ha.OnForward != nil {
		ha.OnForward(pkt.Src, home)
	}
	// Resubmit never registers bindings, so b still points at the same
	// slot here (inserts are the only operation that may move slots).
	if ha.cfg.SendBindingNotices && !b.noticed[pkt.Src] {
		b.noticed[pkt.Src] = true
		ha.sendBindingNotice(pkt.Src, home, b.careOf)
	}
}

// sendBindingNotice tells a correspondent the mobile host's care-of
// address (Section 3.2's first discovery mechanism: "when the home agent
// forwards a packet to the mobile host, it may also send an ICMP message
// back to the packet's source").
func (ha *HomeAgent) sendBindingNotice(to, home, careOf ipv4.Addr) {
	msg := icmp.BindingNotice(home, careOf, ha.cfg.NoticeLifetime)
	ha.Stats.NoticesSent++
	_ = icmphost.Send(ha.host, ha.Addr(), to, &msg)
}

// handleTunneled serves the reverse tunnel (Out-IE, Figure 3): packets
// tunneled to the agent are decapsulated and the inner packet forwarded.
// Only inner sources belonging to registered mobile hosts are relayed —
// an open decapsulator would be exactly the spoofing hole Section 6.1
// warns about.
func (ha *HomeAgent) handleTunneled(ifc *stack.Iface, outer ipv4.Packet) {
	if ha.crashed {
		return
	}
	inner, err := ha.cfg.Codec.Decapsulate(outer)
	if err != nil {
		return
	}
	ha.host.Sim().Metrics.Decaps.Inc()
	ha.Stats.Decaps++
	b := ha.bindings.get(inner.Src)
	if b == nil {
		// Not one of ours. If the inner destination is a registered
		// mobile host this is a correspondent's tunnel that happened to
		// target us — forward it on; otherwise drop.
		if ha.bindings.get(inner.Dst) == nil {
			return
		}
	} else {
		if outer.Src != b.careOf {
			// Tunnel source does not match the registered care-of
			// address; treat as stale or forged and drop.
			return
		}
	}
	ha.Stats.ReverseRelayed++
	if tr := ha.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventDecap, Time: ha.host.Sim().Now(), Where: ha.host.Name(),
			PktID:  inner.TraceID,
			Detail: decapDetail("reverse tunnel: ", inner.Src, inner.Dst),
		})
	}
	_ = ha.host.Resubmit(inner)
}
