package mobileip

import (
	"fmt"
	"math/rand/v2"

	"mob4x4/internal/assert"
	"mob4x4/internal/core"
	"mob4x4/internal/encap"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
	"mob4x4/internal/vtime"
)

// MobileNodeConfig configures a mobile host's mobility support software.
type MobileNodeConfig struct {
	// Home is the permanent home address; HomePrefix its home network.
	Home       ipv4.Addr
	HomePrefix ipv4.Prefix
	// HomeAgent is the agent's address on the home network.
	HomeAgent ipv4.Addr
	// Codec selects tunnel encapsulation (default IPIP).
	Codec encap.Codec
	// Lifetime is the registration lifetime requested, in seconds
	// (default 120).
	Lifetime uint16
	// RegMaxRetries bounds attempts per registration exchange (default
	// 5); the retransmission interval starts at regRetryInterval.
	RegMaxRetries int
	// RegProbeInterval, when non-zero, keeps probing for the home agent
	// after an exchange exhausts its retries: a fresh registration is
	// attempted every interval until one succeeds. Zero disables
	// probing (the node stays silent after giving up).
	RegProbeInterval vtime.Duration
	// Selector is the outgoing-mode decision engine (default: a
	// pessimistic selector). The Out-DT port heuristic is the paper's
	// fixed HTTP+DNS set (core.TemporaryOK).
	Selector *core.Selector
	// Privacy forces all home-address traffic through Out-IE regardless
	// of the selector (the location-privacy motivation of Section 4).
	Privacy bool
	// AnnouncePresence broadcasts a same-segment presence announcement
	// after every move, so aware hosts on the visited LAN switch to
	// In-DH (Row C discovery). Off when Privacy is set — announcing
	// location defeats the point.
	AnnouncePresence bool
	// RegionalAgent, when non-zero, is the regional gateway agent of the
	// hierarchical route-optimization tier. Its address is advertised to
	// the home agent in place of the node's actual care-of address, so
	// the home agent sees one stable care-of address per metro and
	// intra-metro moves register locally only (deregistrations, from
	// GoHome, still advertise the home address). Out-IE traffic is
	// tunneled to it instead of the home agent, and tunnels arriving
	// from it are classified In-IE (the agent is re-tunneling what the
	// home agent sent it).
	RegionalAgent ipv4.Addr
	// Auth, when non-nil, is the node's mobility security association:
	// every registration carries the mobile-home authentication
	// extension computed with it, and replies must carry a valid one
	// back — a reply that fails verification (a rogue relay tampering
	// with the lifetime, or an outright forgery) is dropped and counted
	// under auth_bad_mac. The same (SPI, key) pair must be provisioned
	// at the home agent (HomeAgent.Keys).
	Auth *Authenticator
}

// MobileNodeStats counts mobility events and per-mode traffic. The
// per-mode arrays are the node's half of the paper's 4x4 grid: packets
// and bytes sent per Out mode and delivered per In mode. Bytes count the
// inner (useful) packet; wire bytes count what crossed the network,
// tunnel headers included, so OutWireBytes[m]-OutBytes[m] is the
// encapsulation overhead the route-optimization tier exists to shrink
// (E17).
type MobileNodeStats struct {
	Moves             uint64
	Registrations     uint64
	RegistrationFails uint64
	Renewals          uint64
	RecoveryProbes    uint64
	OutByMode         [core.NumOutModes]uint64
	OutBytes          [core.NumOutModes]uint64
	OutWireBytes      [core.NumOutModes]uint64
	InByMode          [core.NumInModes]uint64
	InBytes           [core.NumInModes]uint64
	InWireBytes       [core.NumInModes]uint64
	InDirect          uint64 // plain packets to the home address (In-DH)
	Encaps            uint64 // packets sent through the tunnel (Out-IE, Out-DE)
	Decaps            uint64 // packets received through the tunnel
}

// MobileNode is the mobile host's mobility support: it owns the policy
// decision for every outgoing packet (via the stack's route-lookup
// override), runs the registration protocol with the home agent, and
// decapsulates incoming tunneled packets. It corresponds to the Linux
// kernel modification plus user-level daemon described in Section 7.
type MobileNode struct {
	host *stack.Host
	ifc  *stack.Iface
	cfg  MobileNodeConfig

	careOf ipv4.Addr
	state  regState
	// viaFA marks foreign-agent attachment: the care-of address is the
	// agent's, the node keeps its home address on the local link, and —
	// as the paper stresses — the agent "restrict[s] the freedom of the
	// mobile host to choose from the full range of possible
	// optimizations": outgoing traffic is Out-DH only.
	viaFA bool

	ids IDClock // registration identifications
	// timer is the registration clock: what its firing means depends on
	// the state (see onTimer).
	timer    *vtime.Timer
	regTries int
	// regBackoff is the current retransmission interval, doubling per
	// retry up to regBackoffMax.
	regBackoff vtime.Duration
	// renewAt is the absolute deadline of the scheduled renewal, kept so
	// MoveToRegional can re-arm the renewal after a migration
	// (DetachRetain stops the timer but the home binding lives on).
	renewAt vtime.Time
	sock    *stack.UDPSocket

	// tunIE and tunDE are the two virtual-interface routes the policy
	// hands out, built once: their Output closures read the node's
	// current state (care-of address, inner destination) at call time,
	// so handing out a route allocates nothing per packet.
	tunIE stack.Route
	tunDE stack.Route

	// OnRegistered, when non-nil, fires when a registration (not a
	// renewal) is accepted.
	OnRegistered func()

	// OnInPacket, when non-nil, observes every arrival the node classifies
	// into the In half of the grid, after the mode counters are bumped.
	// The packet's payload is only valid for the duration of the call
	// (pooled buffers). It is passed by value so a nil hook costs nothing:
	// taking the packet's address here would make escape analysis heap-
	// copy every classified arrival whether or not a hook is installed.
	// The fleet engine uses it to attribute replies to the (Out, In) pair
	// of the conversation that elicited them.
	OnInPacket func(mode core.InMode, pkt ipv4.Packet)

	// OnOutPacket, when non-nil, observes every packet the node files
	// into the Out half of the grid, after the mode counters are bumped.
	// Passed by value for the same escape-analysis reason as OnInPacket.
	// The route-optimization updater uses it to learn which
	// correspondents are active and so deserve pushed binding updates.
	OnOutPacket func(mode core.OutMode, pkt ipv4.Packet)

	Stats MobileNodeStats

	// reg is the current region's registry (drops, the tunnel totals,
	// the registration RTT histogram); the node reports its Stats as a
	// metrics.Source to the registry it was built in.
	reg           *metrics.Registry
	regRTT        *metrics.Histogram
	regExchangeAt vtime.Time

	// rng is the node's own jitter stream, derived from (seed, index) at
	// construction; retry desynchronization draws must not couple this
	// node's schedule to any other entity's draw sequence.
	rng *rand.Rand
}

// Registration retransmission: the first retry waits regRetryInterval,
// later ones back off exponentially with jitter up to regBackoffMax so a
// recovering agent is not met with a synchronized thundering herd.
const (
	regRetryInterval = vtime.Duration(1e9) // 1s
	regBackoffMax    = vtime.Duration(8e9) // 8s
)

// regState is where the node stands in the registration protocol;
// onTimer says what the one timer means in each state.
type regState uint8

const (
	stHome       regState = iota // on the home network, no binding
	stIdle                       // away and unregistered, no request in flight
	stRequesting                 // away and unregistered, request in flight
	stRegistered                 // away and bound, renewal armed
	stRenewing                   // away and bound, renewal in flight
)

// NewMobileNode installs mobility support on host. The host must already
// have its physical interface configured at home (address == cfg.Home).
func NewMobileNode(host *stack.Host, ifc *stack.Iface, cfg MobileNodeConfig) (*MobileNode, error) {
	if cfg.Codec == nil {
		cfg.Codec = encap.IPIP{}
	}
	if cfg.Lifetime == 0 {
		cfg.Lifetime = 120
	}
	if cfg.RegMaxRetries == 0 {
		cfg.RegMaxRetries = 5
	}
	if cfg.Selector == nil {
		cfg.Selector = core.NewSelector(core.StartPessimistic)
	}
	reg := host.Sim().Metrics
	mn := &MobileNode{
		host:   host,
		ifc:    ifc,
		cfg:    cfg,
		careOf: cfg.Home,
		reg:    reg,
		regRTT: reg.Histogram("mn/reg_rtt_ns", metrics.DefaultLatencyBuckets),
		rng:    host.Sched().NewStream(),
	}
	reg.AddSource(mn)
	mn.tunIE = stack.Route{Name: "mip-tunnel", Output: func(inner ipv4.Packet) {
		mn.tunnelOutput(inner, mn.ieDecapsulator(), core.OutIE)
	}}
	mn.tunDE = stack.Route{Name: "mip-tunnel", Output: func(inner ipv4.Packet) {
		mn.tunnelOutput(inner, inner.Dst, core.OutDE)
	}}
	// The home address is always ours, wherever we are.
	host.Claim(cfg.Home, nil)
	// Tunnel decapsulation: packets tunneled to our care-of address.
	host.Handle(cfg.Codec.Proto(), mn.handleTunneled)
	// The mobility policy consults us before the route table.
	host.RouteOverride = mn.routeOverride
	// Classify over-the-wire arrivals into the In-mode half of the grid
	// (tunneled arrivals are classified at decapsulation instead).
	host.DeliveryHook = mn.classifyDelivery
	sock, err := host.OpenUDP(ipv4.Zero, 0, mn.handleRegistrationReply)
	if err != nil {
		return nil, fmt.Errorf("mobileip: mobile node: %w", err)
	}
	mn.sock = sock
	return mn, nil
}

// Host returns the underlying host.
func (mn *MobileNode) Host() *stack.Host { return mn.host }

// Iface returns the node's physical interface (fault schedules bounce it
// to model a radio dropping off the network).
func (mn *MobileNode) Iface() *stack.Iface { return mn.ifc }

// Home returns the permanent home address.
func (mn *MobileNode) Home() ipv4.Addr { return mn.cfg.Home }

// CareOf returns the current care-of address (== Home when at home,
// zero after a detach from home until the next attach).
func (mn *MobileNode) CareOf() ipv4.Addr { return mn.careOf }

// HomeAgentAddr returns the configured home agent's address (the
// route-optimization updater filters it out of peer tracking).
func (mn *MobileNode) HomeAgentAddr() ipv4.Addr { return mn.cfg.HomeAgent }

// AtHome reports whether the node is on its home network.
func (mn *MobileNode) AtHome() bool { return mn.state == stHome }

// Registered reports whether the current care-of address is registered
// with the home agent.
func (mn *MobileNode) Registered() bool { return mn.state == stRegistered || mn.state == stRenewing }

// Report implements metrics.Source. Grid cells are reported only when
// nonzero, so a mode the node never used stays out of the dump.
func (mn *MobileNode) Report(a *metrics.Adder) {
	var registered int64
	if mn.Registered() {
		registered = 1
	}
	a.Level("mn/registered", registered)
	a.Counter("mn/registrations", mn.Stats.Registrations)
	a.Counter("mn/registration_fails", mn.Stats.RegistrationFails)
	a.Counter("mn/renewals", mn.Stats.Renewals)
	a.Counter("mn/recovery_probes", mn.Stats.RecoveryProbes)
	a.Counter("mn/moves", mn.Stats.Moves)
	a.Counter("mn/encaps", mn.Stats.Encaps)
	a.Counter("mn/decaps", mn.Stats.Decaps)
	reportGrid[core.OutMode](a, "grid/out_pkts", &mn.Stats.OutByMode)
	reportGrid[core.OutMode](a, "grid/out_bytes", &mn.Stats.OutBytes)
	reportGrid[core.OutMode](a, "grid/out_wire_bytes", &mn.Stats.OutWireBytes)
	reportGrid[core.InMode](a, "grid/in_pkts", &mn.Stats.InByMode)
	reportGrid[core.InMode](a, "grid/in_bytes", &mn.Stats.InBytes)
	reportGrid[core.InMode](a, "grid/in_wire_bytes", &mn.Stats.InWireBytes)
}

// reportGrid reports the nonzero cells of one per-mode family under
// "family{<mode>}".
func reportGrid[M core.Mode](a *metrics.Adder, family string, v *[core.NumOutModes]uint64) {
	for m, n := range v {
		if n != 0 {
			a.LabeledCounter(family, M(m).String(), n)
		}
	}
}

// Selector exposes the outgoing-mode engine (experiments feed it
// retransmission signals).
func (mn *MobileNode) Selector() *core.Selector { return mn.cfg.Selector }

// SetPrivacy toggles location privacy at runtime.
func (mn *MobileNode) SetPrivacy(v bool) { mn.cfg.Privacy = v }

// MoveTo attaches the node to a visited segment with the given care-of
// address, on-link prefix and default gateway, then registers the new
// location with the home agent ("If the mobile host moves again ... it
// must again inform its home agent of its new location").
func (mn *MobileNode) MoveTo(seg *netsim.Segment, careOf ipv4.Addr, prefix ipv4.Prefix, gateway ipv4.Addr) {
	// Leave home first: the presence announcement and the request both
	// route through routeOverride, which passes everything through at home.
	mn.enter(stIdle)
	mn.attach(seg, careOf, prefix, gateway, false)
	if mn.cfg.AnnouncePresence && !mn.cfg.Privacy {
		mn.AnnouncePresence()
	}
	mn.startExchange(stRequesting)
}

// MoveToForeignAgent attaches the node to a visited segment served by a
// foreign agent (the IETF attachment style of Section 2). The node keeps
// its home address on the local link; the agent's address becomes the
// care-of address; registration is relayed through the agent.
func (mn *MobileNode) MoveToForeignAgent(seg *netsim.Segment, faAddr ipv4.Addr) {
	mn.enter(stIdle)
	mn.attach(seg, faAddr, ipv4.Prefix{}, faAddr, true)
	mn.startExchange(stRequesting)
}

// ViaForeignAgent reports whether the node is attached through a foreign
// agent.
func (mn *MobileNode) ViaForeignAgent() bool { return mn.viaFA }

// GoHome reattaches the node to its home segment and clears the binding
// ("When the mobile host is at home, it ... functions like a normal
// non-mobile Internet host").
func (mn *MobileNode) GoHome(seg *netsim.Segment, gateway ipv4.Addr) {
	mn.enter(stHome)
	mn.attach(seg, mn.cfg.Home, mn.cfg.HomePrefix, gateway, false)
	// Deregister and reclaim our address on the home segment.
	mn.sendRegistration(0, mn.cfg.Home)
	mn.ifc.GratuitousARP(mn.cfg.Home)
}

// MoveToRegional attaches the node to a new segment inside its current
// metro without touching the home registration: the home agent keeps
// tunneling to the stable regional care-of address (cfg.RegionalAgent),
// so only the regional agent needs to learn the new location — the
// caller's local registrar does that. The binding and the renewal
// schedule survive the move; if a migration (DetachRetain + Rehome)
// stopped the renewal, it is re-armed here from the preserved deadline.
func (mn *MobileNode) MoveToRegional(seg *netsim.Segment, careOf ipv4.Addr, prefix ipv4.Prefix, gateway ipv4.Addr) {
	if mn.state == stHome {
		mn.enter(stIdle)
	}
	mn.attach(seg, careOf, prefix, gateway, false)
	if mn.state != stRegistered {
		return
	}
	now := mn.host.Sim().Now()
	switch {
	case mn.timer.Pending():
		// Intra-region move without migration: the schedule is intact.
	case mn.renewAt > now:
		mn.arm(mn.renewAt.Sub(now))
	default:
		// The renewal came due while the node was in transit: renew now
		// rather than letting the home binding silently expire.
		mn.renew()
	}
}

// attach moves the interface onto seg with care-of address careOf on
// prefix, points the default route at gateway (none when zero) and starts
// the outgoing-mode history afresh: what was learned at the old location
// (different filters on the path) may be wrong here.
func (mn *MobileNode) attach(seg *netsim.Segment, careOf ipv4.Addr, prefix ipv4.Prefix, gateway ipv4.Addr, viaFA bool) {
	mn.careOf = careOf
	mn.viaFA = viaFA
	mn.Stats.Moves++
	mn.ifc.Attach(seg)
	addr := careOf
	if viaFA {
		// The agent's address is the care-of address; the node keeps its
		// home address, with no on-link prefix, and answers ARP for it.
		addr = mn.cfg.Home
	}
	mn.ifc.SetAddr(addr, prefix)
	mn.host.Routes().Remove(ipv4.Prefix{}) // old default route
	if !gateway.IsZero() {
		mn.host.Routes().AddDefault(mn.ifc, gateway)
	}
	mn.cfg.Selector.Reset()
}

// DetachRetain detaches the node for migration while keeping its home
// registration: the hierarchical tier's intra-metro moves never clear
// the home binding (the home agent points at the regional care-of
// address, which does not change). The timer is stopped — Rehome
// requires a quiet node — and MoveToRegional re-arms renewal from the
// preserved deadline.
func (mn *MobileNode) DetachRetain() {
	if mn.Registered() {
		mn.enter(stRegistered)
	} else {
		mn.enter(stIdle)
	}
	mn.detach()
}

// Detach models the laptop going to sleep mid-move: connected to nothing.
// A detached node no longer assumes it is home — wherever it wakes up, it
// either discovers an agent (ListenForAgents), acquires an address
// (MoveTo/DHCP), or is explicitly returned home (GoHome).
func (mn *MobileNode) Detach() {
	mn.enter(stIdle)
	mn.detach()
}

// detach takes the interface off its segment. A node detached from its
// home network has no care-of address until the next attach names one,
// so CareOf() == Home() holds exactly when AtHome(); away, the old
// care-of address stays the one the home agent knows.
func (mn *MobileNode) detach() {
	if mn.careOf == mn.cfg.Home {
		mn.careOf = ipv4.Zero
	}
	mn.ifc.Detach()
}

// Rehome rebinds the node's cached per-region state after its host has
// been migrated to a new region Sim (stack.Host.Rehome). The node must be
// detached with no registration exchange in flight — the fleet migration
// protocol guarantees this by calling Detach before shipping the node.
//
// The registry-native instruments (drops, the tunnel totals, the
// registration RTT histogram) were resolved from the old region's
// registry; they are re-resolved from the new one. The node's own counts
// stay a source of the registry it was built in, which only reads them
// after the shard workers have joined. The timer handle needs nothing:
// arm re-arms it on whichever scheduler the host runs on. Nor does the
// jitter rng: it is plain PRNG state, and the node's events are totally
// ordered in virtual time across migrations, so carrying the stream
// keeps the draw sequence — and with it cross-worker-count determinism —
// intact.
func (mn *MobileNode) Rehome() {
	// A preserved registration (DetachRetain, hierarchical tier) may ride
	// along — its stable regional care-of address stays valid across the
	// migration — but an unanswered exchange may not: its reply would
	// arrive on the old shard.
	if mn.state == stRequesting || mn.state == stRenewing {
		assert.Unreachable("mobileip: Rehome of %s with a registration exchange in flight",
			mn.host.Name())
	}
	if mn.timer.Pending() {
		assert.Unreachable("mobileip: Rehome of %s with a pending timer", mn.host.Name())
	}
	reg := mn.host.Sim().Metrics
	mn.reg = reg
	mn.regRTT = reg.Histogram("mn/reg_rtt_ns", metrics.DefaultLatencyBuckets)
}

// enter moves the registration state machine to s, stopping the timer:
// whatever it was armed for belonged to the state being left, and the
// new state arms its own. A move outside the table is a logic error.
func (mn *MobileNode) enter(s regState) {
	// next[from] is the set of states from may move to. Every state may
	// go home (GoHome) or idle (a move, Detach, a give-up); a binding is
	// only ever reached through an accepted request.
	next := [...]uint8{
		stHome:       1<<stHome | 1<<stIdle,
		stIdle:       1<<stHome | 1<<stIdle | 1<<stRequesting,
		stRequesting: 1<<stHome | 1<<stIdle | 1<<stRegistered,
		stRegistered: 1<<stHome | 1<<stIdle | 1<<stRegistered | 1<<stRenewing,
		stRenewing:   1<<stHome | 1<<stIdle | 1<<stRegistered,
	}
	if next[mn.state]&(1<<s) == 0 {
		assert.Unreachable("mobileip: %s: illegal registration move %d -> %d", mn.host.Name(), mn.state, s)
	}
	mn.state = s
	mn.timer.Stop()
}

// arm (re)starts the timer d from now on the host's scheduler. The one
// handle is built on first use and re-armed via Reset, so re-arming never
// allocates (the tcplite retransmission idiom).
func (mn *MobileNode) arm(d vtime.Duration) {
	if mn.timer == nil {
		mn.timer = vtime.NewTimer(mn.onTimer)
	}
	mn.timer.Reset(mn.host.Sched(), d)
}

// onTimer is the registration clock's one callback.
func (mn *MobileNode) onTimer() {
	switch mn.state {
	case stRequesting, stRenewing:
		mn.retransmit()
	case stRegistered:
		mn.renew()
	case stIdle: // recovery probe: the last exchange gave up
		mn.Stats.RecoveryProbes++
		mn.startExchange(stRequesting)
	}
}

// renew refreshes the binding before its lifetime runs out.
func (mn *MobileNode) renew() {
	mn.Stats.Renewals++
	mn.startExchange(stRenewing)
}

// ieDecapsulator is where Out-IE tunnels terminate: the regional gateway
// agent when the hierarchical tier is configured, the home agent
// otherwise.
func (mn *MobileNode) ieDecapsulator() ipv4.Addr {
	if !mn.cfg.RegionalAgent.IsZero() {
		return mn.cfg.RegionalAgent
	}
	return mn.cfg.HomeAgent
}

// registerCareOf is the care-of address advertised to the home agent:
// the regional gateway's stable address when the hierarchical tier is
// on, the node's actual one otherwise.
func (mn *MobileNode) registerCareOf() ipv4.Addr {
	if !mn.cfg.RegionalAgent.IsZero() {
		return mn.cfg.RegionalAgent
	}
	return mn.careOf
}

// Reregister restarts the registration exchange for the current care-of
// address without moving — the recovery primitive after an interface
// bounce or a suspected agent restart. A no-op at home.
func (mn *MobileNode) Reregister() {
	if mn.state == stHome {
		return
	}
	mn.enter(stIdle)
	mn.startExchange(stRequesting)
}

// startExchange enters s (requesting or renewing) and begins a
// registration exchange: fresh try count, initial backoff, first
// transmission, retransmission armed.
func (mn *MobileNode) startExchange(s regState) {
	mn.enter(s)
	mn.regTries = 0
	mn.regBackoff = regRetryInterval
	mn.regExchangeAt = mn.host.Sim().Now()
	mn.sendRegistration(mn.cfg.Lifetime, mn.registerCareOf())
	mn.armRetry()
}

func (mn *MobileNode) sendRegistration(lifetime uint16, careOf ipv4.Addr) {
	req := Request{
		Lifetime:  lifetime,
		Home:      mn.cfg.Home,
		HomeAgent: mn.cfg.HomeAgent,
		CareOf:    careOf,
		ID:        mn.ids.Next(mn.host.Sim().Now()),
	}
	if mn.viaFA {
		req.Flags |= FlagViaForeignAgent
	}
	// Marshal into a pooled buffer: SendToFrom copies the payload before
	// returning, so a renewal storm's requests cost zero allocations.
	// The authenticator is computed into the same pooled buffer with the
	// association's preallocated HMAC state — still zero allocations.
	buf := netsim.GetBuf()
	rb := mn.cfg.Auth.AppendAuth(req.AppendMarshal(buf.B))
	if mn.viaFA {
		// Via a foreign agent: the request goes to the agent (one
		// link-layer hop) from the home address; the agent substitutes
		// its own address as the care-of address and relays.
		_ = mn.sock.SendToFrom(mn.cfg.Home, mn.careOf, udp.PortRegistration, rb)
	} else {
		// Self-sufficient: registration always travels Out-DT — "It has no
		// choice, since until it has registered with the home agent the
		// other Mobile IP delivery services are not available" (Section 6.4).
		_ = mn.sock.SendToFrom(mn.careOf, mn.cfg.HomeAgent, udp.PortRegistration, rb)
	}
	netsim.PutBuf(buf)
}

// armRetry schedules the next retransmission at the current backoff.
// From the second retry on, a jitter of up to backoff/4 is added so
// nodes re-registering after a shared outage do not stay synchronized
// (the first arm is unjittered, keeping the common lossless exchange
// free of extra RNG draws).
func (mn *MobileNode) armRetry() {
	d := mn.regBackoff
	if d > regRetryInterval {
		if q := int64(d / 4); q > 0 {
			d += vtime.Duration(mn.rng.Int64N(q))
		}
	}
	mn.arm(d)
}

// retransmit fires when a registration request has gone unanswered for
// the current backoff interval: retransmit with the interval doubled, or
// — once the exchange's try budget is spent — give up, drop the binding
// and fall back to recovery probing (if RegProbeInterval is set).
func (mn *MobileNode) retransmit() {
	mn.regTries++
	if mn.regTries >= mn.cfg.RegMaxRetries {
		mn.enter(stIdle)
		mn.Stats.RegistrationFails++
		if tr := mn.host.Sim().Trace; tr.On() {
			tr.Record(netsim.Event{
				Kind: netsim.EventRegister, Time: mn.host.Sim().Now(), Where: mn.host.Name(),
				Detail: "registration abandoned: retries exhausted",
			})
		}
		if mn.cfg.RegProbeInterval > 0 {
			mn.arm(mn.cfg.RegProbeInterval)
		}
		return
	}
	mn.regBackoff *= 2
	if mn.regBackoff > regBackoffMax {
		mn.regBackoff = regBackoffMax
	}
	mn.sendRegistration(mn.cfg.Lifetime, mn.registerCareOf())
	mn.armRetry()
}

func (mn *MobileNode) handleRegistrationReply(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
	rep, _, hasAuth, ok := ParseReply(payload)
	if !ok {
		return
	}
	if !mn.cfg.Auth.Accepts(payload, hasAuth) {
		// Under a security association every reply must authenticate:
		// this is what catches a rogue relay re-writing lifetimes (the
		// MAC covers them) or forging denials.
		mn.reg.Drop(metrics.DropAuthBadMAC)
		return
	}
	if rep.ID != mn.ids.Last() || rep.Home != mn.cfg.Home {
		return
	}
	if mn.state != stRequesting && mn.state != stRenewing {
		// The exchange this reply answers is already settled: a network
		// duplicate, or the agent's denial of a replayed copy of our
		// request spoofed back at us. Either way there is nothing to
		// update, and counting it as a fresh failure would let a
		// replayer pollute the node's registration stats.
		return
	}
	if rep.Code != CodeAccepted {
		mn.Stats.RegistrationFails++
		return
	}
	if rep.Lifetime == 0 {
		return // deregistration confirmed
	}
	first := mn.state == stRequesting
	mn.enter(stRegistered)
	// Exchange latency: first transmission of this exchange to the
	// accepted reply, including any retransmission backoff.
	mn.regRTT.ObserveDuration(mn.host.Sim().Now().Sub(mn.regExchangeAt))
	mn.Stats.Registrations++
	if tr := mn.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventRegister, Time: mn.host.Sim().Now(), Where: mn.host.Name(),
			Detail: fmt.Sprintf("registered %s -> %s lifetime=%ds", mn.cfg.Home, mn.careOf, rep.Lifetime),
		})
	}
	// Renew at 80% of the granted lifetime.
	renewAt := vtime.Duration(rep.Lifetime) * 1e9 * 8 / 10
	mn.renewAt = mn.host.Sim().Now().Add(renewAt)
	mn.arm(renewAt)
	if first && mn.OnRegistered != nil {
		mn.OnRegistered()
	}
}

// classifyDelivery is the stack's DeliveryHook: it files every genuine
// over-the-wire arrival (ifc == nil marks loopback/resubmitted inner
// packets, which are skipped — their tunnel was classified at decap
// time) into the In-mode half of the 4x4 grid. Packets to the home
// address while away are In-DH (link-direct delivery, Section 5);
// packets to the care-of address are In-DT — including registration
// replies, which per Section 6.4 have no other mode available. Tunnel
// outers to the care-of address are skipped here and counted as
// In-IE/In-DE after decapsulation.
func (mn *MobileNode) classifyDelivery(ifc *stack.Iface, pkt ipv4.Packet) {
	if ifc == nil || mn.state == stHome {
		return
	}
	switch pkt.Dst {
	case mn.cfg.Home:
		if pkt.Protocol == mn.cfg.Codec.Proto() {
			return // tunneled to the home address: classified at decap
		}
		mn.Stats.InDirect++
		mn.countIn(core.InDH, pkt.TotalLen(), pkt.TotalLen())
		if mn.OnInPacket != nil {
			mn.OnInPacket(core.InDH, pkt)
		}
	case mn.careOf:
		if pkt.Protocol == mn.cfg.Codec.Proto() {
			return // tunnel outer: classified at decap
		}
		mn.countIn(core.InDT, pkt.TotalLen(), pkt.TotalLen())
		if mn.OnInPacket != nil {
			mn.OnInPacket(core.InDT, pkt)
		}
	}
}

// handleTunneled decapsulates packets tunneled to our care-of address and
// re-injects the inner packet (addressed to the home address, which we
// claim, so it is delivered locally).
func (mn *MobileNode) handleTunneled(ifc *stack.Iface, outer ipv4.Packet) {
	inner, err := mn.cfg.Codec.Decapsulate(outer)
	if err != nil {
		return
	}
	mn.reg.Decaps.Inc()
	mn.Stats.Decaps++
	// In-IE when the tunnel entry point was the home agent, In-DE when a
	// correspondent encapsulated directly to us (Section 4's columns).
	inMode := core.InDE
	if outer.Src == mn.cfg.HomeAgent ||
		(!mn.cfg.RegionalAgent.IsZero() && outer.Src == mn.cfg.RegionalAgent) {
		inMode = core.InIE
	}
	mn.countIn(inMode, inner.TotalLen(), outer.TotalLen())
	if mn.OnInPacket != nil {
		mn.OnInPacket(inMode, inner)
	}
	if inner.Dst.IsMulticast() {
		// Group traffic relayed by the home agent (Section 6.4's
		// tunneled alternative): deliver to our own subscribers.
		mn.host.InjectLocal(inner)
		return
	}
	if tr := mn.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventDecap, Time: mn.host.Sim().Now(), Where: mn.host.Name(),
			PktID:  inner.TraceID,
			Detail: decapDetail("detunnel: ", inner.Src, inner.Dst),
		})
	}
	_ = mn.host.Resubmit(inner)
}

// countIn files one arrival under its In mode: size is the delivered
// packet's length, wire the length of what crossed the network.
func (mn *MobileNode) countIn(mode core.InMode, size, wire int) {
	mn.Stats.InByMode[mode]++
	mn.Stats.InBytes[mode] += uint64(size)
	mn.Stats.InWireBytes[mode] += uint64(wire)
}

// countOut files one outgoing packet under its Out mode.
func (mn *MobileNode) countOut(mode core.OutMode, pkt *ipv4.Packet) {
	mn.Stats.OutByMode[mode]++
	mn.Stats.OutBytes[mode] += uint64(pkt.TotalLen())
	if mode == core.OutDH || mode == core.OutDT {
		// Direct modes hit the wire as-is; the encapsulated modes file
		// their wire bytes in tunnelOutput, where the outer exists.
		mn.Stats.OutWireBytes[mode] += uint64(pkt.TotalLen())
	}
	if mn.OnOutPacket != nil {
		mn.OnOutPacket(mode, *pkt)
	}
}

// routeOverride is the paper's policy-table-before-route-table hook. It
// decides, per packet, which of the four outgoing modes to use and either
// routes the packet onto the tunnel virtual interface (encapsulated
// modes) or pins the source address and falls through to normal routing.
func (mn *MobileNode) routeOverride(pkt ipv4.Packet) (stack.Route, ipv4.Addr, bool) {
	if mn.state == stHome {
		return stack.Route{}, pkt.Src, false // normal host at home: normal routing
	}
	if mn.viaFA {
		// Foreign-agent attachment: the full menu is unavailable. All
		// outgoing traffic is plain IP from the home address, routed
		// via the agent (the restriction Section 2 criticizes).
		pkt.Src = mn.cfg.Home
		mn.countOut(core.OutDH, &pkt)
		return stack.Route{}, pkt.Src, false
	}
	// Never intercept our own registration/tunnel machinery, and honor
	// explicit bindings: a packet sourced from the care-of address — or
	// from the address of ANY physical interface ("If the application
	// binds its socket to the source address of (any of) the machine's
	// physical interface(s), then the packets sent through that socket
	// are sent directly", §7.1.1) — is Out-DT by application request.
	if pkt.Src == mn.careOf && !pkt.Src.IsZero() { // careOf is zero while detached from home
		mn.countOut(core.OutDT, &pkt)
		return stack.Route{}, pkt.Src, false
	}
	if !pkt.Src.IsZero() && pkt.Src != mn.cfg.Home {
		for _, ifc := range mn.host.Ifaces() {
			if ifc.Addr() == pkt.Src {
				mn.countOut(core.OutDT, &pkt)
				return stack.Route{}, pkt.Src, false
			}
		}
	}

	pref := core.PreferAuto
	if pkt.Src == mn.cfg.Home {
		pref = core.PreferHome
	}
	dstPort, _ := pkt.TransportDstPort()

	_, ruleForced := mn.cfg.Selector.ForcedMode(pkt.Dst)
	var mode core.OutMode
	switch {
	case mn.cfg.Privacy:
		mode = core.OutIE
	case !ruleForced && mn.ifc.Prefix().Bits > 0 && mn.ifc.Prefix().Contains(pkt.Dst):
		// Same-segment correspondent (Row C): deliver directly with the
		// home source address; no router — and so no filter — is
		// involved. This also satisfies a socket pinned to the home
		// address: Out-DH keeps the home address as the endpoint. An
		// explicit user rule for the destination overrides the shortcut.
		mode = core.OutDH
	default:
		mode = core.Decide(mn.cfg.Selector, pref, pkt.Dst, dstPort).Mode
	}
	mn.countOut(mode, &pkt)

	src := pkt.Src
	if src.IsZero() {
		src = mn.cfg.Home
	}
	switch mode {
	case core.OutDT:
		return stack.Route{}, mn.careOf, false
	case core.OutDH:
		return stack.Route{}, mn.cfg.Home, false
	case core.OutDE:
		return mn.tunDE, src, true
	default: // core.OutIE
		return mn.tunIE, src, true
	}
}

// tunnelOutput is the virtual-interface output function ("the routine
// directs IP to send the packet to our virtual interface, which
// encapsulates the packet and resubmits it to IP"). The tunnel payload is
// built in a pooled buffer; Resubmit copies it onward before returning, so
// the buffer is recycled immediately.
func (mn *MobileNode) tunnelOutput(inner ipv4.Packet, decapsulator ipv4.Addr, mode core.OutMode) {
	if inner.TTL == 0 {
		inner.TTL = ipv4.DefaultTTL
	}
	careOf := mn.careOf
	buf := netsim.GetBuf()
	outer, err := mn.cfg.Codec.AppendEncap(inner, careOf, decapsulator, ipv4.Zero, buf.B)
	if err != nil {
		netsim.PutBuf(buf)
		return
	}
	mn.reg.Encaps.Inc()
	mn.Stats.Encaps++
	mn.Stats.OutWireBytes[mode] += uint64(outer.TotalLen())
	if tr := mn.host.Sim().Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventEncap, Time: mn.host.Sim().Now(), Where: mn.host.Name(),
			PktID:  inner.TraceID,
			Detail: tunnelDetail(careOf, decapsulator, inner.Src, inner.Dst),
		})
	}
	_ = mn.host.Resubmit(outer)
	netsim.PutBuf(buf)
}
