package routeopt_test

import (
	"fmt"
	"reflect"
	"testing"

	"mob4x4/internal/faults"
	"mob4x4/internal/icmp"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/routeopt"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
)

// metroWorld is the hierarchical-tier topology: one metro behind a
// gateway router, with the regional agent on its own LAN and two cell
// LANs the mobile host hands off between.
//
//	homeLAN(36.1.1.0/24) -- homeGW -- bb0 -- bb1 -- mgw -- gfaLAN(11.1.0.0/24)
//	                                   |              |--- cellA(128.9.1.0/24)
//	                                 farGW             `-- cellB(128.9.2.0/24)
//	                                   |
//	                                 farLAN(17.5.0.0/24)
//
// The home agent sees one stable care-of address (the regional agent's);
// intra-metro handoffs touch only the regional agent's table.
type metroWorld struct {
	net     *inet.Network
	homeLAN *inet.LAN
	gfaLAN  *inet.LAN
	cellA   *inet.LAN
	cellB   *inet.LAN
	farLAN  *inet.LAN

	haHost *stack.Host
	ha     *mobileip.HomeAgent

	gfaHost *stack.Host
	gfa     *routeopt.RegionalAgent

	mhHost *stack.Host
	mhIfc  *stack.Iface
	mn     *mobileip.MobileNode
	mhICMP *icmphost.ICMP
	lr     *routeopt.LocalRegistrar

	chFar  *stack.Host
	chICMP *icmphost.ICMP
}

type metroOpts struct {
	requireAuth bool // regional agent refuses unprovisioned homes
	lrAuth      *mobileip.Authenticator
}

func buildMetro(t testing.TB, opts metroOpts) *metroWorld {
	t.Helper()
	w := &metroWorld{net: inet.New(42)}
	n := w.net

	lat := netsim.SegmentOpts{Latency: 1 * ms}
	w.homeLAN = n.AddLAN("home", "36.1.1.0/24", lat)
	w.gfaLAN = n.AddLAN("gfa", "11.1.0.0/24", lat)
	w.cellA = n.AddLAN("cellA", "128.9.1.0/24", lat)
	w.cellB = n.AddLAN("cellB", "128.9.2.0/24", lat)
	w.farLAN = n.AddLAN("far", "17.5.0.0/24", lat)

	homeGW := n.AddRouter("homeGW")
	mgw := n.AddRouter("mgw")
	farGW := n.AddRouter("farGW")
	bb := n.Chain("bb", 2, 5*ms)
	n.AttachRouter(homeGW, w.homeLAN)
	n.AttachRouter(mgw, w.gfaLAN)
	n.AttachRouter(mgw, w.cellA)
	n.AttachRouter(mgw, w.cellB)
	n.AttachRouter(farGW, w.farLAN)
	n.Link(homeGW, bb[0], 5*ms)
	n.Link(mgw, bb[1], 5*ms)
	n.Link(farGW, bb[0], 5*ms)

	w.haHost = n.AddHost("ha", w.homeLAN)
	w.gfaHost = n.AddHost("gfa", w.gfaLAN)
	mh, mhIfc := n.AddMobileHost("mh", w.homeLAN)
	w.mhHost, w.mhIfc = mh, mhIfc
	w.chFar = n.AddHost("chFar", w.farLAN)
	n.ComputeRoutes()

	var err error
	w.ha, err = mobileip.NewHomeAgent(w.haHost, w.haHost.Ifaces()[0], mobileip.HomeAgentConfig{})
	if err != nil {
		t.Fatalf("NewHomeAgent: %v", err)
	}
	gfaAddr := w.gfaHost.FirstAddr()
	w.gfa, err = routeopt.NewRegionalAgent(w.gfaHost, gfaAddr, routeopt.RegionalAgentConfig{
		HomeAgent:   w.haHost.Ifaces()[0].Addr(),
		RequireAuth: opts.requireAuth,
	})
	if err != nil {
		t.Fatalf("NewRegionalAgent: %v", err)
	}

	w.mhICMP = icmphost.Install(w.mhHost)
	w.mn, err = mobileip.NewMobileNode(w.mhHost, w.mhIfc, mobileip.MobileNodeConfig{
		Home:          w.mhIfc.Addr(),
		HomePrefix:    w.homeLAN.Prefix,
		HomeAgent:     w.haHost.Ifaces()[0].Addr(),
		RegionalAgent: gfaAddr,
	})
	if err != nil {
		t.Fatalf("NewMobileNode: %v", err)
	}
	w.lr, err = routeopt.NewLocalRegistrar(w.mn, routeopt.LocalRegistrarConfig{
		Regional: gfaAddr,
		Auth:     opts.lrAuth,
	})
	if err != nil {
		t.Fatalf("NewLocalRegistrar: %v", err)
	}

	w.chICMP = icmphost.Install(w.chFar)
	return w
}

// enterMetro moves the MH into cellA: one home registration (advertising
// the stable regional care-of address) plus one regional registration.
func (w *metroWorld) enterMetro(t testing.TB) ipv4.Addr {
	t.Helper()
	careOf := w.cellA.NextAddr()
	w.mn.MoveTo(w.cellA.Seg, careOf, w.cellA.Prefix, w.cellA.Gateway)
	w.lr.Register()
	w.net.RunFor(2e9)
	if !w.mn.Registered() {
		t.Fatal("home registration failed")
	}
	if got, ok := w.ha.CareOf(w.mn.Home()); !ok || got != w.gfa.Addr() {
		t.Fatalf("HA binding = %v,%v; want regional address %s", got, ok, w.gfa.Addr())
	}
	if got, ok := w.gfa.CareOf(w.mn.Home()); !ok || got != careOf {
		t.Fatalf("regional binding = %v,%v; want %s", got, ok, careOf)
	}
	return careOf
}

func (w *metroWorld) chPing(t testing.TB, seq uint16) int {
	t.Helper()
	replies := 0
	w.chICMP.OnEchoReply = func(src ipv4.Addr, msg icmp.Message) {
		replies++
		if src != w.mn.Home() {
			t.Errorf("reply from %s, want home %s", src, w.mn.Home())
		}
	}
	_ = w.chICMP.Ping(ipv4.Zero, w.mn.Home(), 9, seq, nil)
	w.net.RunFor(3e9)
	return replies
}

func TestHierarchicalDeliveryBothDirections(t *testing.T) {
	w := buildMetro(t, metroOpts{})
	log, stop := w.net.Sim.Trace.Capture()
	careOf := w.enterMetro(t)

	if got := w.chPing(t, 1); got != 1 {
		t.Fatalf("replies = %d", got)
	}
	stop()
	// The regional agent's own trace events: the binding it installs,
	// then one re-tunnel per direction (into the cell, up to the HA).
	var got []string
	for _, e := range *log {
		if e.Where == w.gfaHost.Name() && (e.Kind == netsim.EventRegister || e.Kind == netsim.EventEncap) {
			got = append(got, e.Kind.String()+": "+e.Detail)
		}
	}
	home, ch, gfa := w.mn.Home(), w.chFar.FirstAddr(), w.gfa.Addr()
	want := []string{
		fmt.Sprintf("register: regional binding %s -> %s lifetime=60s", home, careOf),
		fmt.Sprintf("encap: retunnel %s -> %s: inner %s > %s", gfa, careOf, ch, home),
		fmt.Sprintf("encap: retunnel %s -> %s: inner %s > %s", gfa, w.haHost.FirstAddr(), home, ch),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("regional agent events = %q, want %q", got, want)
	}
	// Down: HA tunneled to the regional agent, which re-tunneled into
	// the cell. Up: the MH reverse-tunneled (Out-IE, pessimistic
	// default) to the regional agent, which relayed onward to the HA.
	if w.gfa.Stats.DownRelayed != 1 || w.gfa.Stats.UpRelayed != 1 {
		t.Errorf("gfa down=%d up=%d, want 1/1", w.gfa.Stats.DownRelayed, w.gfa.Stats.UpRelayed)
	}
	if w.ha.Stats.Forwarded != 1 || w.ha.Stats.ReverseRelayed != 1 {
		t.Errorf("ha forwarded=%d reverse=%d, want 1/1", w.ha.Stats.Forwarded, w.ha.Stats.ReverseRelayed)
	}
	if w.mn.Stats.Decaps != 1 {
		t.Errorf("MH tunneled-in = %d, want 1", w.mn.Stats.Decaps)
	}
}

// TestIntraMetroHandoffSkipsHomeUplink is the hierarchical tier's whole
// point: a cellA→cellB handoff re-registers with the regional agent only;
// the home agent processes no new registration and its binding stays the
// stable regional address.
func TestIntraMetroHandoffSkipsHomeUplink(t *testing.T) {
	w := buildMetro(t, metroOpts{})
	w.enterMetro(t)
	if got := w.chPing(t, 1); got != 1 {
		t.Fatalf("warm-up replies = %d", got)
	}

	haRegs := w.ha.Stats.Registrations
	careOfB := w.cellB.NextAddr()
	w.mn.MoveToRegional(w.cellB.Seg, careOfB, w.cellB.Prefix, w.cellB.Gateway)
	w.lr.Register()
	w.net.RunFor(2e9)

	if w.ha.Stats.Registrations != haRegs {
		t.Errorf("home agent processed %d registrations during an intra-metro handoff",
			w.ha.Stats.Registrations-haRegs)
	}
	if !w.mn.Registered() {
		t.Error("home registration lost across MoveToRegional")
	}
	if got, ok := w.gfa.CareOf(w.mn.Home()); !ok || got != careOfB {
		t.Fatalf("regional binding = %v,%v; want %s", got, ok, careOfB)
	}
	if got, ok := w.ha.CareOf(w.mn.Home()); !ok || got != w.gfa.Addr() {
		t.Errorf("HA binding moved: %v,%v", got, ok)
	}
	// Delivery follows the handoff.
	if got := w.chPing(t, 2); got != 1 {
		t.Fatalf("replies after handoff = %d", got)
	}
	if w.lr.Stats.Registrations != 2 {
		t.Errorf("regional registrations = %d, want 2", w.lr.Stats.Registrations)
	}
}

// TestRegionalBindingExpiresLazily: an unrefreshed regional binding
// expires at lookup time, once its fixed 60s lifetime has passed;
// tunnels for it then count as NoBinding (the per-handoff refresh keeps
// this from happening in practice).
func TestRegionalBindingExpiresLazily(t *testing.T) {
	w := buildMetro(t, metroOpts{})
	careOf := w.cellA.NextAddr()
	w.mn.MoveTo(w.cellA.Seg, careOf, w.cellA.Prefix, w.cellA.Gateway)
	w.lr.Register()
	w.net.RunFor(59e9) // inside the 60s granted lifetime
	if got, ok := w.gfa.CareOf(w.mn.Home()); !ok || got != careOf {
		t.Fatalf("regional binding = %v,%v; want %s", got, ok, careOf)
	}

	w.net.RunFor(2e9)
	if _, ok := w.gfa.CareOf(w.mn.Home()); ok {
		t.Fatal("regional binding survived its lifetime")
	}
	if w.gfa.Stats.Expired != 1 {
		t.Errorf("expired = %d, want 1", w.gfa.Stats.Expired)
	}
	// A tunnel for the expired binding is dropped, not misrouted.
	_ = w.chICMP.Ping(ipv4.Zero, w.mn.Home(), 9, 1, nil)
	w.net.RunFor(2e9)
	if w.gfa.Stats.NoBinding == 0 {
		t.Error("tunnel for expired binding not counted")
	}
}

func TestRegionalAuthRequired(t *testing.T) {
	// Unprovisioned, unauthenticated: refused.
	w := buildMetro(t, metroOpts{requireAuth: true})
	careOf := w.cellA.NextAddr()
	w.mn.MoveTo(w.cellA.Seg, careOf, w.cellA.Prefix, w.cellA.Gateway)
	w.lr.Register()
	w.net.RunFor(2e9)
	if w.gfa.Stats.Denied == 0 || w.lr.Stats.Fails == 0 {
		t.Fatalf("denied=%d fails=%d, want >0/>0", w.gfa.Stats.Denied, w.lr.Stats.Fails)
	}
	if _, ok := w.gfa.CareOf(w.mn.Home()); ok {
		t.Fatal("unauthenticated registration installed a binding")
	}

	// Provisioned and signed: accepted.
	w2 := buildMetro(t, metroOpts{requireAuth: true,
		lrAuth: mobileip.NewAuthenticator(testSPI, testKey)})
	w2.gfa.Keys().Provision(w2.mn.Home(), testSPI, testKey)
	got := w2.enterMetro(t)
	if w2.lr.Stats.Registrations != 1 {
		t.Errorf("authenticated registration = %d, want 1 (care-of %s)", w2.lr.Stats.Registrations, got)
	}
}

// TestRegionalRejectsForeignGateway: a request naming some other agent
// as its target is refused with "not a home agent for this host".
func TestRegionalRejectsForeignGateway(t *testing.T) {
	w := buildMetro(t, metroOpts{})

	var code uint8
	sock, err := w.chFar.OpenUDP(ipv4.Zero, 0, func(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
		if rep, _, _, ok := mobileip.ParseReply(payload); ok {
			code = rep.Code
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	req := mobileip.Request{
		Lifetime:  60,
		Home:      w.mn.Home(),
		HomeAgent: w.chFar.FirstAddr(), // not the gateway
		CareOf:    w.cellA.NextAddr(),
		ID:        1,
	}
	_ = sock.SendTo(w.gfa.Addr(), udp.PortRegistration, req.Marshal())
	w.net.RunFor(1e9)
	if code != mobileip.CodeDeniedNotHomeAgent {
		t.Fatalf("code = %d, want %d", code, mobileip.CodeDeniedNotHomeAgent)
	}
	if w.gfa.Bindings() != 0 {
		t.Error("misdirected registration installed a binding")
	}
}

// TestLocalRegistrarRetriesAndAbandons: with the regional registration
// port blackholed, the registrar spends its bounded retry budget and
// gives up; once the blackhole lifts, the next Register succeeds.
func TestLocalRegistrarRetriesAndAbandons(t *testing.T) {
	w := buildMetro(t, metroOpts{})
	careOf := w.cellA.NextAddr()
	w.mn.MoveTo(w.cellA.Seg, careOf, w.cellA.Prefix, w.cellA.Gateway)
	w.net.RunFor(2e9) // home registration completes before the fault

	bh := faults.BlackholePort(w.cellA.Seg, udp.PortRegistration)
	w.lr.Register()
	w.net.RunFor(5e9)
	// Defaults: 4 transmissions (1 fresh + 3 retransmits), then abandon.
	if w.lr.Stats.Retransmits != 3 || w.lr.Stats.Fails != 1 {
		t.Fatalf("retransmits=%d fails=%d, want 3/1", w.lr.Stats.Retransmits, w.lr.Stats.Fails)
	}
	if w.lr.Stats.Registrations != 0 {
		t.Fatal("registration succeeded through a blackhole")
	}
	bh.Remove()
	w.lr.Register()
	w.net.RunFor(2e9)
	if w.lr.Stats.Registrations != 1 {
		t.Errorf("registrations = %d after blackhole removed, want 1", w.lr.Stats.Registrations)
	}
	if got, ok := w.gfa.CareOf(w.mn.Home()); !ok || got != careOf {
		t.Errorf("regional binding = %v,%v; want %s", got, ok, careOf)
	}
}

// TestRegionalReplayWindow: the gateway's authenticated path mirrors
// the home agent's MAC-then-window ordering — replayed and stale IDs
// are refused under their own codes, a missing MAC as an auth failure.
func TestRegionalReplayWindow(t *testing.T) {
	w := buildMetro(t, metroOpts{})
	w.gfa.Keys().Provision(w.mn.Home(), testSPI, testKey)
	auth := mobileip.NewAuthenticator(testSPI, testKey)

	var codes []uint8
	sock, err := w.chFar.OpenUDP(ipv4.Zero, 0, func(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
		if rep, _, _, ok := mobileip.ParseReply(payload); ok {
			codes = append(codes, rep.Code)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	careOf := w.cellA.NextAddr()
	send := func(id uint64, sign bool) {
		req := mobileip.Request{
			Lifetime: 60, Home: w.mn.Home(), HomeAgent: w.gfa.Addr(),
			CareOf: careOf, ID: id,
		}
		b := req.Marshal()
		if sign {
			b = auth.AppendAuth(b)
		}
		_ = sock.SendTo(w.gfa.Addr(), udp.PortRegistration, b)
		w.net.RunFor(1e9)
	}

	send(200, true)  // fresh: accepted
	send(200, true)  // same ID: replay
	send(10, true)   // 190 behind the window: stale
	send(300, false) // unsigned under an association: auth failure

	want := []uint8{mobileip.CodeAccepted, mobileip.CodeDeniedReplay,
		mobileip.CodeDeniedStaleID, mobileip.CodeDeniedAuthFailed}
	if len(codes) != len(want) {
		t.Fatalf("got %d replies (%v), want %d", len(codes), codes, len(want))
	}
	for i := range want {
		if codes[i] != want[i] {
			t.Errorf("reply[%d] code = %d, want %d", i, codes[i], want[i])
		}
	}
	if w.gfa.Stats.Registrations != 1 || w.gfa.Stats.Denied != 3 {
		t.Errorf("registrations=%d denied=%d, want 1/3", w.gfa.Stats.Registrations, w.gfa.Stats.Denied)
	}
}

// TestRegionalRefusesStaleAndGarbage: without an association the
// gateway still refuses IDs at or behind the binding's last, ignores
// unparseable registrations, and drops undecapsulatable tunnels.
func TestRegionalRefusesStaleAndGarbage(t *testing.T) {
	w := buildMetro(t, metroOpts{})
	if w.gfa.Host() != w.gfaHost {
		t.Fatal("Host() accessor mismatch")
	}
	w.enterMetro(t)

	var code uint8
	replies := 0
	sock, err := w.chFar.OpenUDP(ipv4.Zero, 0, func(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
		if rep, _, _, ok := mobileip.ParseReply(payload); ok {
			code, replies = rep.Code, replies+1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The registrar's vtime-derived IDs put the binding's lastID in the
	// billions; ID 1 is far behind it.
	req := mobileip.Request{
		Lifetime: 60, Home: w.mn.Home(), HomeAgent: w.gfa.Addr(),
		CareOf: w.cellB.NextAddr(), ID: 1,
	}
	_ = sock.SendTo(w.gfa.Addr(), udp.PortRegistration, req.Marshal())
	w.net.RunFor(1e9)
	if code != mobileip.CodeDeniedStaleID || replies != 1 {
		t.Fatalf("code=%d replies=%d, want %d/1", code, replies, mobileip.CodeDeniedStaleID)
	}

	// Garbage on the registration port: no reply at all.
	_ = sock.SendTo(w.gfa.Addr(), udp.PortRegistration, []byte{0xfe, 0x01})
	w.net.RunFor(1e9)
	if replies != 1 {
		t.Errorf("garbage registration drew a reply")
	}

	// A tunnel too short to decapsulate is dropped before the binding
	// lookup — it counts as nothing, not as NoBinding.
	noBinding := w.gfa.Stats.NoBinding
	_ = w.chFar.SendIP(ipv4.Packet{
		Header:  ipv4.Header{Protocol: ipv4.ProtoIPIP, Dst: w.gfa.Addr()},
		Payload: []byte{1, 2, 3},
	})
	w.net.RunFor(1e9)
	if w.gfa.Stats.NoBinding != noBinding {
		t.Errorf("undecapsulatable tunnel miscounted as NoBinding")
	}
}

func TestRegionalAgentPortConflict(t *testing.T) {
	w := buildMetro(t, metroOpts{})
	_, err := routeopt.NewRegionalAgent(w.gfaHost, w.gfa.Addr(), routeopt.RegionalAgentConfig{
		HomeAgent: w.haHost.Ifaces()[0].Addr(),
	})
	if err == nil {
		t.Fatal("second regional agent on one host did not refuse")
	}
}

// TestLocalRegistrarSupersedeQuiesceRehome: a Register in flight is
// superseded by the next one (the stale reply's ID no longer matches),
// the accepted-hook reports the registered care-of address, and the
// registrar survives a quiesce-and-re-register migration round trip.
func TestLocalRegistrarSupersedeQuiesceRehome(t *testing.T) {
	w := buildMetro(t, metroOpts{})
	careOf := w.cellA.NextAddr()
	w.mn.MoveTo(w.cellA.Seg, careOf, w.cellA.Prefix, w.cellA.Gateway)
	w.net.RunFor(2e9)

	var accepted []ipv4.Addr
	w.lr.OnAccepted = func(c ipv4.Addr) { accepted = append(accepted, c) }
	w.lr.Register()
	w.lr.Register() // supersedes: two requests on the wire, one exchange
	w.net.RunFor(2e9)
	if w.lr.Stats.Registrations != 1 {
		t.Fatalf("registrations = %d, want 1 (stale reply must not count)", w.lr.Stats.Registrations)
	}
	if len(accepted) != 1 || accepted[0] != careOf {
		t.Fatalf("OnAccepted saw %v, want [%s]", accepted, careOf)
	}

	w.lr.Quiesce()
	w.lr.Register()
	w.net.RunFor(2e9)
	if w.lr.Stats.Registrations != 2 {
		t.Errorf("registrations = %d after quiesce, want 2", w.lr.Stats.Registrations)
	}
	if w.lr.Stats.Retransmits != 0 {
		t.Errorf("retransmits = %d on a clean LAN", w.lr.Stats.Retransmits)
	}
}

// TestLocalRegistrarDropsUnsignedReply: a registrar holding an
// association refuses unauthenticated replies — a gateway that cannot
// countersign is indistinguishable from an impostor, so the exchange
// burns its retry budget and fails closed.
func TestLocalRegistrarDropsUnsignedReply(t *testing.T) {
	w := buildMetro(t, metroOpts{
		lrAuth: mobileip.NewAuthenticator(testSPI, testKey),
		// The gateway is NOT provisioned: it accepts and replies unsigned.
	})
	careOf := w.cellA.NextAddr()
	w.mn.MoveTo(w.cellA.Seg, careOf, w.cellA.Prefix, w.cellA.Gateway)
	w.net.RunFor(2e9)

	w.lr.Register()
	w.net.RunFor(5e9)
	if w.lr.Stats.Registrations != 0 || w.lr.Stats.Fails != 1 {
		t.Fatalf("registrations=%d fails=%d, want 0/1", w.lr.Stats.Registrations, w.lr.Stats.Fails)
	}
	if w.lr.Stats.Retransmits != 3 {
		t.Errorf("retransmits = %d, want 3 (budget spent on dropped replies)", w.lr.Stats.Retransmits)
	}
}

func TestLocalRegistrarDeregister(t *testing.T) {
	w := buildMetro(t, metroOpts{})
	w.enterMetro(t)
	w.lr.Deregister()
	w.net.RunFor(1e9)
	if w.gfa.Bindings() != 0 {
		t.Errorf("bindings = %d after deregister, want 0", w.gfa.Bindings())
	}
	if w.gfa.Stats.Deregistrations != 1 {
		t.Errorf("deregistrations = %d, want 1", w.gfa.Stats.Deregistrations)
	}
}
