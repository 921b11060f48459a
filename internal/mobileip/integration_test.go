package mobileip_test

import (
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/encap"
	"mob4x4/internal/icmp"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/vtime"
)

const ms = vtime.Duration(1e6)

// world is the standard integration topology:
//
//	homeLAN(36.1.1.0/24) -- homeGW -- bb0 -- bb1 -- bb2 -- visitGW -- visitLAN(128.9.1.0/24)
//	                                   |
//	                                 farGW -- farLAN(17.5.0.0/24)
//
// The home agent lives on the home LAN; the mobile host starts at home and
// roams to the visited LAN; correspondents live on the far LAN (distant)
// and the visited LAN (nearby).
type world struct {
	net      *inet.Network
	homeLAN  *inet.LAN
	visitLAN *inet.LAN
	farLAN   *inet.LAN
	homeGW   *stack.Host
	visitGW  *stack.Host
	farGW    *stack.Host

	haHost *stack.Host
	ha     *mobileip.HomeAgent

	mhHost *stack.Host
	mhIfc  *stack.Iface
	mn     *mobileip.MobileNode
	mhICMP *icmphost.ICMP

	chFar   *stack.Host // correspondent on farLAN
	chFarC  *mobileip.Correspondent
	chNear  *stack.Host // correspondent on visitLAN
	chNearC *mobileip.Correspondent
	chHome  *stack.Host // correspondent inside the home domain
}

type worldOpts struct {
	homeFilter  bool // boundary filtering at the home domain
	visitFilter bool // egress filtering at the visited domain
	notices     bool // HA sends binding notices
	chAware     bool // correspondents are fully mobile-aware
	chDecap     bool // correspondents can decapsulate (Out-DE target)
	auth        bool // provision the MH's mobility security association
	codec       encap.Codec
	selector    *core.Selector

	// Registration-robustness knobs (zero = the MobileNode defaults).
	lifetime         uint16
	regMaxRetries    int
	regProbeInterval vtime.Duration
}

func buildWorld(t testing.TB, opts worldOpts) *world {
	t.Helper()
	w := &world{net: inet.New(42)}
	n := w.net

	lat := netsim.SegmentOpts{Latency: 1 * ms}
	w.homeLAN = n.AddLAN("home", "36.1.1.0/24", lat)
	w.visitLAN = n.AddLAN("visit", "128.9.1.0/24", lat)
	w.farLAN = n.AddLAN("far", "17.5.0.0/24", lat)

	w.homeGW = n.AddRouter("homeGW")
	w.visitGW = n.AddRouter("visitGW")
	w.farGW = n.AddRouter("farGW")
	bb := n.Chain("bb", 3, 5*ms)

	n.AttachRouter(w.homeGW, w.homeLAN)
	n.AttachRouter(w.visitGW, w.visitLAN)
	n.AttachRouter(w.farGW, w.farLAN)
	n.Link(w.homeGW, bb[0], 5*ms)
	n.Link(w.visitGW, bb[2], 5*ms)
	n.Link(w.farGW, bb[0], 5*ms)

	// Hosts. Order matters for address allocation: gateway took .1.
	w.haHost = n.AddHost("ha", w.homeLAN)
	mh, mhIfc := n.AddMobileHost("mh", w.homeLAN)
	w.mhHost, w.mhIfc = mh, mhIfc
	w.chFar = n.AddHost("chFar", w.farLAN)
	w.chNear = n.AddHost("chNear", w.visitLAN)
	w.chHome = n.AddHost("chHome", w.homeLAN)

	if opts.homeFilter {
		n.SetBoundaryFilter(w.homeGW, true, true, "36.1.1.0/24")
	}
	if opts.visitFilter {
		n.SetBoundaryFilter(w.visitGW, true, true, "128.9.1.0/24")
	}
	n.ComputeRoutes()

	var err error
	w.ha, err = mobileip.NewHomeAgent(w.haHost, w.haHost.Ifaces()[0], mobileip.HomeAgentConfig{
		Codec:              opts.codec,
		SendBindingNotices: opts.notices,
	})
	if err != nil {
		t.Fatalf("NewHomeAgent: %v", err)
	}

	var auth *mobileip.Authenticator
	if opts.auth {
		w.ha.Keys().Provision(w.mhIfc.Addr(), testSPI, testKey)
		auth = mobileip.NewAuthenticator(testSPI, testKey)
	}

	w.mhICMP = icmphost.Install(w.mhHost)
	w.mn, err = mobileip.NewMobileNode(w.mhHost, w.mhIfc, mobileip.MobileNodeConfig{
		Auth:             auth,
		Home:             w.mhIfc.Addr(),
		HomePrefix:       w.homeLAN.Prefix,
		HomeAgent:        w.haHost.Ifaces()[0].Addr(),
		Codec:            opts.codec,
		Selector:         opts.selector,
		Lifetime:         opts.lifetime,
		RegMaxRetries:    opts.regMaxRetries,
		RegProbeInterval: opts.regProbeInterval,
	})
	if err != nil {
		t.Fatalf("NewMobileNode: %v", err)
	}

	chCfg := mobileip.CorrespondentConfig{
		Codec:          opts.codec,
		CanDecapsulate: opts.chDecap,
		MobileAware:    opts.chAware,
	}
	w.chFarC = mobileip.NewCorrespondent(w.chFar, icmphost.Install(w.chFar), chCfg)
	w.chNearC = mobileip.NewCorrespondent(w.chNear, icmphost.Install(w.chNear), chCfg)
	return w
}

// roam moves the MH to the visited LAN and waits for registration.
func (w *world) roam(t testing.TB) ipv4.Addr {
	t.Helper()
	careOf := w.visitLAN.NextAddr()
	w.mn.MoveTo(w.visitLAN.Seg, careOf, w.visitLAN.Prefix, w.visitLAN.Gateway)
	w.net.RunFor(2e9) // 2s: plenty for registration including a retry
	if !w.mn.Registered() {
		t.Fatalf("mobile node failed to register (care-of %s)", careOf)
	}
	if got, ok := w.ha.CareOf(w.mn.Home()); !ok || got != careOf {
		t.Fatalf("home agent binding = %v,%v; want %s", got, ok, careOf)
	}
	return careOf
}

func TestRegistrationAtHomeAgent(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	w.roam(t)
	if w.ha.Bindings() != 1 {
		t.Errorf("bindings = %d, want 1", w.ha.Bindings())
	}
}

func TestFig1BasicMobileIP(t *testing.T) {
	// Figure 1: CH sends to the MH's home address; the packet is routed
	// to the home network, captured by the HA, tunneled to the MH. The
	// MH's reply travels directly (here: Out-DH, optimistic selector, no
	// filters anywhere).
	w := buildWorld(t, worldOpts{selector: core.NewSelector(core.StartOptimistic)})
	w.roam(t)

	ic := icmphost.Install(w.chFar)
	var replies int
	ic.OnEchoReply = func(src ipv4.Addr, msg icmp.Message) {
		replies++
		if src != w.mn.Home() {
			t.Errorf("echo reply from %s, want home address %s (transparent mobility)", src, w.mn.Home())
		}
	}

	_ = ic.Ping(ipv4.Zero, w.mn.Home(), 1, 1, []byte("fig1"))
	w.net.RunFor(2e9)

	if replies != 1 {
		t.Fatalf("echo replies = %d, want 1", replies)
	}
	// The HA must have tunneled exactly one packet to the MH.
	if w.ha.Stats.Forwarded != 1 {
		t.Errorf("HA forwarded = %d, want 1", w.ha.Stats.Forwarded)
	}
	if w.mn.Stats.Decaps != 1 {
		t.Errorf("MH tunneled-in = %d, want 1", w.mn.Stats.Decaps)
	}
}
