package routeopt_test

import (
	"fmt"
	"testing"

	"mob4x4/internal/core"
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
	"mob4x4/internal/vtime"
)

const ms = vtime.Duration(1e6)

// roWorld is the push-tier test topology:
//
//	homeLAN(36.1.1.0/24) -- homeGW -- bb0 -- bb1 -- visitGW -- visitLAN(128.9.1.0/24)
//	                                   |
//	                                 farGW -- farLAN(17.5.0.0/24)
//
// The mobile host roams to the visited LAN; the correspondent (with a
// binding-update receiver) lives on the far LAN. No binding notices —
// the push tier is the only way the correspondent learns anything.
type roWorld struct {
	net      *inet.Network
	homeLAN  *inet.LAN
	visitLAN *inet.LAN
	farLAN   *inet.LAN

	haHost *stack.Host
	ha     *mobileip.HomeAgent

	mhHost *stack.Host
	mhIfc  *stack.Iface
	mn     *mobileip.MobileNode
	mhICMP *icmphost.ICMP

	chFar  *stack.Host
	chICMP *icmphost.ICMP
	chFarC *mobileip.Correspondent
	chNear *stack.Host

	up   *routeopt.Updater
	hup  *routeopt.HAUpdater
	recv *routeopt.Receiver
}

type roOpts struct {
	auth        bool // sign updates with the mobility association
	requireAuth bool // receiver refuses homes with no association
	haPush      bool // HAUpdater instead of the MN-push Updater
	noUpdater   bool // skip the push side entirely (receiver-only tests)
}

func buildROWorld(t testing.TB, opts roOpts) *roWorld {
	t.Helper()
	w := &roWorld{net: inet.New(42)}
	n := w.net

	lat := netsim.SegmentOpts{Latency: 1 * ms}
	w.homeLAN = n.AddLAN("home", "36.1.1.0/24", lat)
	w.visitLAN = n.AddLAN("visit", "128.9.1.0/24", lat)
	w.farLAN = n.AddLAN("far", "17.5.0.0/24", lat)

	homeGW := n.AddRouter("homeGW")
	visitGW := n.AddRouter("visitGW")
	farGW := n.AddRouter("farGW")
	bb := n.Chain("bb", 2, 5*ms)
	n.AttachRouter(homeGW, w.homeLAN)
	n.AttachRouter(visitGW, w.visitLAN)
	n.AttachRouter(farGW, w.farLAN)
	n.Link(homeGW, bb[0], 5*ms)
	n.Link(visitGW, bb[1], 5*ms)
	n.Link(farGW, bb[0], 5*ms)

	w.haHost = n.AddHost("ha", w.homeLAN)
	mh, mhIfc := n.AddMobileHost("mh", w.homeLAN)
	w.mhHost, w.mhIfc = mh, mhIfc
	w.chFar = n.AddHost("chFar", w.farLAN)
	w.chNear = n.AddHost("chNear", w.visitLAN)
	n.ComputeRoutes()

	var err error
	w.ha, err = mobileip.NewHomeAgent(w.haHost, w.haHost.Ifaces()[0], mobileip.HomeAgentConfig{})
	if err != nil {
		t.Fatalf("NewHomeAgent: %v", err)
	}

	var auth *mobileip.Authenticator
	if opts.auth {
		auth = mobileip.NewAuthenticator(testSPI, testKey)
	}

	w.mhICMP = icmphost.Install(w.mhHost)
	w.mn, err = mobileip.NewMobileNode(w.mhHost, w.mhIfc, mobileip.MobileNodeConfig{
		Home:       w.mhIfc.Addr(),
		HomePrefix: w.homeLAN.Prefix,
		HomeAgent:  w.haHost.Ifaces()[0].Addr(),
		Selector:   core.NewSelector(core.StartOptimistic),
	})
	if err != nil {
		t.Fatalf("NewMobileNode: %v", err)
	}

	w.chICMP = icmphost.Install(w.chFar)
	w.chFarC = mobileip.NewCorrespondent(w.chFar, w.chICMP, mobileip.CorrespondentConfig{
		CanDecapsulate: true,
		MobileAware:    true,
	})
	w.recv, err = routeopt.NewReceiver(w.chFarC, routeopt.ReceiverConfig{RequireAuth: opts.requireAuth})
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	if opts.auth {
		w.recv.Keys().Provision(w.mn.Home(), testSPI, testKey)
	}

	switch {
	case opts.noUpdater:
	case opts.haPush:
		w.hup, err = routeopt.NewHAUpdater(w.ha)
		if err != nil {
			t.Fatalf("NewHAUpdater: %v", err)
		}
		w.hup.ProvisionHome(w.mn.Home(), auth)
	default:
		w.up, err = routeopt.NewUpdater(w.mn, routeopt.UpdaterConfig{Auth: auth})
		if err != nil {
			t.Fatalf("NewUpdater: %v", err)
		}
	}
	return w
}

func (w *roWorld) roam(t testing.TB) ipv4.Addr {
	t.Helper()
	careOf := w.visitLAN.NextAddr()
	w.mn.MoveTo(w.visitLAN.Seg, careOf, w.visitLAN.Prefix, w.visitLAN.Gateway)
	w.net.RunFor(2e9)
	if !w.mn.Registered() {
		t.Fatalf("mobile node failed to register (care-of %s)", careOf)
	}
	return careOf
}

// chPing sends one echo from the far correspondent to the MH's home
// address and returns how many replies came back within 3s.
func (w *roWorld) chPing(seq uint16) int {
	replies := 0
	w.chICMP.OnEchoReply = func(src ipv4.Addr, msg icmp.Message) { replies++ }
	_ = w.chICMP.Ping(ipv4.Zero, w.mn.Home(), 7, seq, nil)
	w.net.RunFor(3e9)
	return replies
}

// teachUpdater sends MH traffic to the far correspondent so the updater
// learns it as an active peer.
func (w *roWorld) teachUpdater(t testing.TB) {
	t.Helper()
	_ = w.mhICMP.Ping(ipv4.Zero, w.chFar.FirstAddr(), 1, 1, nil)
	w.net.RunFor(3e9)
	if got := w.up.ActivePeers(); got != 1 {
		t.Fatalf("ActivePeers = %d, want 1 (updater did not learn from traffic)", got)
	}
}

func TestPushBindingReachesCorrespondent(t *testing.T) {
	w := buildROWorld(t, roOpts{})
	careOf := w.roam(t)
	w.teachUpdater(t)

	w.up.PushBinding()
	w.net.RunFor(2e9)

	if w.recv.Stats.Updates != 1 || w.recv.Stats.Accepted != 1 {
		t.Fatalf("receiver updates=%d accepted=%d, want 1/1", w.recv.Stats.Updates, w.recv.Stats.Accepted)
	}
	if w.up.Stats.UpdatesSent != 1 || w.up.Stats.Acks != 1 {
		t.Fatalf("updater sent=%d acks=%d, want 1/1", w.up.Stats.UpdatesSent, w.up.Stats.Acks)
	}
	if w.up.Stats.Retransmits != 0 {
		t.Errorf("retransmits = %d on a clean path", w.up.Stats.Retransmits)
	}
	if b, ok := w.chFarC.Policy().Binding(w.mn.Home()); !ok || b.CareOf != careOf {
		t.Fatalf("correspondent binding = %+v,%v; want care-of %s", b, ok, careOf)
	}

	// The pushed binding takes effect: CH traffic now goes In-DE, the
	// home agent never touches it.
	fwd := w.ha.Stats.Forwarded
	if got := w.chPing(1); got != 1 {
		t.Fatalf("replies = %d", got)
	}
	if w.chFarC.Stats.SentInDE != 1 {
		t.Errorf("SentInDE = %d, want 1", w.chFarC.Stats.SentInDE)
	}
	if w.ha.Stats.Forwarded != fwd {
		t.Errorf("HA forwarded %d packets after push", w.ha.Stats.Forwarded-fwd)
	}
}

func TestPushAuthenticatedEndToEnd(t *testing.T) {
	w := buildROWorld(t, roOpts{auth: true, requireAuth: true})
	careOf := w.roam(t)
	w.teachUpdater(t)

	w.up.PushBinding()
	w.net.RunFor(2e9)

	if w.up.Stats.Acks != 1 || w.recv.Stats.Accepted != 1 {
		t.Fatalf("acks=%d accepted=%d, want 1/1", w.up.Stats.Acks, w.recv.Stats.Accepted)
	}
	if b, ok := w.chFarC.Policy().Binding(w.mn.Home()); !ok || b.CareOf != careOf {
		t.Fatalf("binding = %+v,%v", b, ok)
	}
}

// TestUnauthenticatedPushNacked: a receiver that requires auth refuses
// an unsigned update; the updater drops the peer from the push set and
// traffic keeps flowing In-IE — the hard fallback.
func TestUnauthenticatedPushNacked(t *testing.T) {
	w := buildROWorld(t, roOpts{requireAuth: true})
	w.roam(t)
	w.teachUpdater(t)

	log, stop := w.net.Sim.Trace.Capture()
	w.up.PushBinding()
	w.net.RunFor(2e9)
	stop()

	if w.up.Stats.Nacks != 1 || w.recv.Stats.Refused != 1 {
		t.Fatalf("nacks=%d refused=%d, want 1/1", w.up.Stats.Nacks, w.recv.Stats.Refused)
	}
	var notes []string
	for _, e := range *log {
		if e.Kind == netsim.EventNote {
			notes = append(notes, e.Detail)
		}
	}
	refused := fmt.Sprintf("binding update refused by %s: code %d", w.chFar.FirstAddr(), routeopt.AckDeniedUnknownHome)
	if len(notes) != 1 || notes[0] != refused {
		t.Errorf("notes = %q, want [%q]", notes, refused)
	}
	if got := w.up.ActivePeers(); got != 0 {
		t.Errorf("ActivePeers = %d after nack, want 0", got)
	}
	if _, ok := w.chFarC.Policy().Binding(w.mn.Home()); ok {
		t.Error("binding learned from a refused update")
	}
	// Fallback: the conversation survives via In-IE triangle routing.
	fwd := w.ha.Stats.Forwarded
	if got := w.chPing(1); got != 1 {
		t.Fatalf("replies = %d — refused push lost the conversation", got)
	}
	if w.ha.Stats.Forwarded != fwd+1 {
		t.Errorf("HA forwarded = %d, want %d (In-IE fallback)", w.ha.Stats.Forwarded, fwd+1)
	}
}

// TestBlackholedPushFallsBackToInIE is the fault-injection acceptance
// trial in miniature: binding updates are blackholed, the updater
// retransmits its bounded budget and abandons, and no conversation is
// lost — traffic simply keeps triangle-routing.
func TestBlackholedPushFallsBackToInIE(t *testing.T) {
	w := buildROWorld(t, roOpts{})
	w.roam(t)
	w.teachUpdater(t)

	bh := faults.BlackholePort(w.visitLAN.Seg, udp.PortBindingUpdate)
	w.up.PushBinding()
	w.net.RunFor(4e9)

	// Defaults: 3 transmissions (1 fresh + 2 retransmits), then abandon.
	if w.up.Stats.UpdatesSent != 3 || w.up.Stats.Retransmits != 2 {
		t.Fatalf("sent=%d retransmits=%d, want 3/2", w.up.Stats.UpdatesSent, w.up.Stats.Retransmits)
	}
	if w.up.Stats.Abandons != 1 || w.up.Stats.Acks != 0 {
		t.Fatalf("abandons=%d acks=%d, want 1/0", w.up.Stats.Abandons, w.up.Stats.Acks)
	}
	if w.recv.Stats.Updates != 0 {
		t.Fatalf("receiver saw %d updates through a blackhole", w.recv.Stats.Updates)
	}
	// The peer stays in the push set (it refused nothing), and the
	// conversation survives In-IE.
	if got := w.up.ActivePeers(); got != 1 {
		t.Errorf("ActivePeers = %d, want 1", got)
	}
	fwd := w.ha.Stats.Forwarded
	if got := w.chPing(1); got != 1 {
		t.Fatalf("replies = %d — blackholed push lost the conversation", got)
	}
	if w.ha.Stats.Forwarded != fwd+1 {
		t.Errorf("HA forwarded = %d, want %d", w.ha.Stats.Forwarded, fwd+1)
	}
	bh.Remove()

	// With the blackhole gone the next push goes through.
	w.up.PushBinding()
	w.net.RunFor(2e9)
	if w.up.Stats.Acks != 1 {
		t.Errorf("acks = %d after blackhole removed, want 1", w.up.Stats.Acks)
	}
}

func TestPushRevocationForgetsBinding(t *testing.T) {
	w := buildROWorld(t, roOpts{})
	w.roam(t)
	w.teachUpdater(t)
	w.up.PushBinding()
	w.net.RunFor(2e9)
	if _, ok := w.chFarC.Policy().Binding(w.mn.Home()); !ok {
		t.Fatal("push did not land")
	}

	w.up.PushRevocation()
	w.net.RunFor(2e9)
	if w.recv.Stats.Revocations != 1 {
		t.Fatalf("revocations = %d, want 1", w.recv.Stats.Revocations)
	}
	if _, ok := w.chFarC.Policy().Binding(w.mn.Home()); ok {
		t.Error("binding survived revocation")
	}
	// Traffic reverts to the home agent.
	fwd := w.ha.Stats.Forwarded
	if got := w.chPing(1); got != 1 {
		t.Fatalf("replies = %d", got)
	}
	if w.ha.Stats.Forwarded != fwd+1 {
		t.Errorf("CH did not revert to In-IE after revocation")
	}
}

// TestCachedBindingExpiresToInIE: the pushed cache TTL is the safety
// net — after it runs out with no refresh, the correspondent reverts to
// triangle routing on its own.
func TestCachedBindingExpiresToInIE(t *testing.T) {
	w := buildROWorld(t, roOpts{})
	w.roam(t)
	w.teachUpdater(t)
	w.up.PushBinding() // default TTL 20s
	w.net.RunFor(2e9)
	if _, ok := w.chFarC.Policy().Binding(w.mn.Home()); !ok {
		t.Fatal("push did not land")
	}
	w.net.RunFor(25e9)
	if _, ok := w.chFarC.Policy().Binding(w.mn.Home()); ok {
		t.Fatal("binding survived its TTL")
	}
	fwd := w.ha.Stats.Forwarded
	if got := w.chPing(1); got != 1 {
		t.Fatalf("replies = %d", got)
	}
	if w.ha.Stats.Forwarded != fwd+1 {
		t.Error("CH did not fall back to In-IE after TTL expiry")
	}
}

// TestReceiverReplayWindow drives the receiver's authenticated path with
// hand-crafted datagrams: a fresh ID is accepted, the same ID again is
// refused as a replay, an ID far behind the window as stale, and a
// tampered MAC as an auth failure.
func TestReceiverReplayWindow(t *testing.T) {
	w := buildROWorld(t, roOpts{noUpdater: true, requireAuth: true})
	careOf := w.roam(t)
	w.recv.Keys().Provision(w.mn.Home(), testSPI, testKey)
	auth := mobileip.NewAuthenticator(testSPI, testKey)

	var codes []uint8
	sock, err := w.chNear.OpenUDP(ipv4.Zero, 0, func(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
		if a, _, _, ok := routeopt.ParseAck(payload); ok {
			codes = append(codes, a.Code)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	send := func(id uint64, corrupt bool) {
		u := routeopt.BindingUpdate{Lifetime: 20, Home: w.mn.Home(), CareOf: careOf, ID: id}
		b := auth.AppendAuth(u.Marshal())
		if corrupt {
			b[len(b)-1] ^= 0xff
		}
		_ = sock.SendTo(w.chFar.FirstAddr(), udp.PortBindingUpdate, b)
		w.net.RunFor(1e9)
	}

	send(200, false) // fresh: accepted
	send(200, false) // same ID: replay
	send(10, false)  // 190 behind the window: stale
	send(300, true)  // tampered MAC: auth failure

	want := []uint8{routeopt.AckAccepted, routeopt.AckDeniedReplay, routeopt.AckDeniedStaleID, routeopt.AckDeniedAuthFailed}
	if len(codes) != len(want) {
		t.Fatalf("got %d acks (%v), want %d", len(codes), codes, len(want))
	}
	for i := range want {
		if codes[i] != want[i] {
			t.Errorf("ack[%d] code = %d, want %d", i, codes[i], want[i])
		}
	}
	if w.recv.Stats.Accepted != 1 || w.recv.Stats.Refused != 3 {
		t.Errorf("accepted=%d refused=%d, want 1/3", w.recv.Stats.Accepted, w.recv.Stats.Refused)
	}
}

// TestReceiverMalformedIgnored: garbage on port 435 is counted and
// dropped without an ack.
func TestReceiverMalformedIgnored(t *testing.T) {
	w := buildROWorld(t, roOpts{noUpdater: true})
	w.roam(t)
	acked := 0
	sock, err := w.chNear.OpenUDP(ipv4.Zero, 0, func(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
		acked++
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sock.SendTo(w.chFar.FirstAddr(), udp.PortBindingUpdate, []byte{0xff, 0x00, 0x01})
	w.net.RunFor(1e9)
	if w.recv.Stats.Malformed != 1 || acked != 0 {
		t.Errorf("malformed=%d acks=%d, want 1/0", w.recv.Stats.Malformed, acked)
	}
}

// TestHAUpdaterPushesOnHandoff: the HA-push variant learns
// correspondents from the traffic it forwards and pushes when the
// binding's care-of address changes.
func TestHAUpdaterPushesOnHandoff(t *testing.T) {
	w := buildROWorld(t, roOpts{haPush: true})
	w.roam(t)

	// Triangle-routed traffic teaches the HA who the correspondent is.
	if got := w.chPing(1); got != 1 {
		t.Fatalf("replies = %d", got)
	}
	if got := w.hup.ActivePeers(w.mn.Home()); got != 1 {
		t.Fatalf("HA updater ActivePeers = %d, want 1", got)
	}
	// A renewal at the same care-of address pushes nothing.
	w.mn.Reregister()
	w.net.RunFor(2e9)
	if w.hup.Stats.UpdatesSent != 0 {
		t.Fatalf("push on same-care-of renewal: sent=%d", w.hup.Stats.UpdatesSent)
	}

	// Handoff: a new care-of address triggers the push.
	careOf2 := w.visitLAN.NextAddr()
	w.mn.MoveTo(w.visitLAN.Seg, careOf2, w.visitLAN.Prefix, w.visitLAN.Gateway)
	w.net.RunFor(3e9)
	if w.hup.Stats.UpdatesSent != 1 || w.hup.Stats.Acks != 1 {
		t.Fatalf("sent=%d acks=%d, want 1/1", w.hup.Stats.UpdatesSent, w.hup.Stats.Acks)
	}
	if b, ok := w.chFarC.Policy().Binding(w.mn.Home()); !ok || b.CareOf != careOf2 {
		t.Fatalf("binding = %+v,%v; want care-of %s", b, ok, careOf2)
	}
}

// TestUpdaterQuiesceRehome: the migration round trip. A push in flight
// is quiesced, and the push after arrival supersedes it — the straggler ack for the superseded ID matches no
// slot and is ignored.
func TestUpdaterQuiesceRehome(t *testing.T) {
	w := buildROWorld(t, roOpts{})
	careOf := w.roam(t)
	w.teachUpdater(t)

	w.up.PushBinding()
	w.up.Quiesce()
	w.up.PushBinding()
	w.net.RunFor(3e9)

	if w.up.Stats.UpdatesSent != 2 || w.up.Stats.Acks != 1 {
		t.Fatalf("sent=%d acks=%d, want 2/1 (superseded ack must not match)",
			w.up.Stats.UpdatesSent, w.up.Stats.Acks)
	}
	if w.up.Stats.Retransmits != 0 || w.up.Stats.Abandons != 0 {
		t.Errorf("retransmits=%d abandons=%d after quiesce, want 0/0",
			w.up.Stats.Retransmits, w.up.Stats.Abandons)
	}
	if b, ok := w.chFarC.Policy().Binding(w.mn.Home()); !ok || b.CareOf != careOf {
		t.Fatalf("binding = %+v,%v; want care-of %s", b, ok, careOf)
	}
}

// TestHookChainsPreserved: both updaters chain onto hooks that the
// fleet's own bookkeeping may already occupy — installing an updater
// must not silence the previous observer.
func TestHookChainsPreserved(t *testing.T) {
	w := buildROWorld(t, roOpts{noUpdater: true})
	outSeen, fwdSeen, bindSeen := 0, 0, 0
	w.mn.OnOutPacket = func(core.OutMode, ipv4.Packet) { outSeen++ }
	w.ha.OnForward = func(correspondent, home ipv4.Addr) { fwdSeen++ }
	w.ha.OnBind = func(home, careOf ipv4.Addr) { bindSeen++ }

	up, err := routeopt.NewUpdater(w.mn, routeopt.UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hup, err := routeopt.NewHAUpdater(w.ha)
	if err != nil {
		t.Fatal(err)
	}
	hup.ProvisionHome(w.mn.Home(), nil)

	w.roam(t)
	_ = w.mhICMP.Ping(ipv4.Zero, w.chFar.FirstAddr(), 1, 1, nil)
	w.net.RunFor(3e9)
	if got := w.chPing(1); got != 1 {
		t.Fatalf("replies = %d", got)
	}
	if bindSeen == 0 {
		t.Error("previous OnBind observer silenced")
	}
	if fwdSeen == 0 {
		t.Error("previous OnForward observer silenced")
	}
	if outSeen == 0 {
		t.Error("previous OnOutPacket observer silenced")
	}
	if got := up.ActivePeers(); got != 1 {
		t.Errorf("updater ActivePeers = %d, want 1 (chained hook broke learning)", got)
	}
	// An unprovisioned home has no engine and therefore no peers.
	if got := hup.ActivePeers(w.chNear.FirstAddr()); got != 0 {
		t.Errorf("ActivePeers(unprovisioned) = %d, want 0", got)
	}
}

// TestReceiverPortConflict: one binding-update receiver per host — the
// well-known port is single-owner.
func TestReceiverPortConflict(t *testing.T) {
	w := buildROWorld(t, roOpts{noUpdater: true})
	if _, err := routeopt.NewReceiver(w.chFarC, routeopt.ReceiverConfig{}); err == nil {
		t.Fatal("second receiver on one host did not refuse")
	}
}
