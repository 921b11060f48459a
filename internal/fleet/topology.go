package fleet

import (
	"fmt"

	"mob4x4/internal/assert"
	"mob4x4/internal/core"
	"mob4x4/internal/faults"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/routeopt"
	"mob4x4/internal/sock"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
	"mob4x4/internal/vtime"
)

// buildTopology constructs the metro: home network and agent, a routed
// backbone, K visited cells (each with gateway, foreign agent and
// kiosk), and a far network of correspondents.
//
//	home(36.1/16) --hagw-- bb0 -- bb1 -- ... -- bbB-1 --fargw-- far(17.5.1/24)
//	                        |      |             |
//	                     cell0   cell1  ...   cellK-1   (10.(i+1)/16, i%B)
func (f *Fleet) buildTopology() {
	n := f.Net
	opts := f.Opts

	f.HomeLAN = n.AddLAN("home", "36.1.0.0/16", netsim.SegmentOpts{Latency: 1 * millisecond})
	hagw := n.AddRouter("hagw")
	n.AttachRouter(hagw, f.HomeLAN)

	bb := n.Chain("bb", backboneRouters, 5*millisecond)
	n.Link(hagw, bb[0], 2*millisecond)

	far := n.AddLAN("far", "17.5.1.0/24", netsim.SegmentOpts{Latency: 1 * millisecond})
	fargw := n.AddRouter("fargw")
	n.AttachRouter(fargw, far)
	n.Link(fargw, bb[len(bb)-1], 8*millisecond)

	// Far correspondents: one per reply style.
	// chNaive is a conventional 1996 host: it answers pings to whatever
	// source address they carried; replies to the home address arrive
	// In-IE via the home agent's tunnel.
	chNaiveHost := n.AddHost("ch-naive", far)
	icmphost.Install(chNaiveHost)
	f.chNaive = chNaiveHost.FirstAddr()

	// chAware is mobile-aware: it learns bindings from the home agent's
	// notices and switches its replies to In-DE. It can also
	// decapsulate, so nodes may send to it Out-DE. The route-
	// optimization tier hangs its binding-update receiver off this
	// correspondent — the other correspondents stay update-deaf, so
	// pushes to them exhaust their retries and the TTL fallback carries
	// the conversation.
	chAwareHost := n.AddHost("ch-aware", far)
	chAwareIC := icmphost.Install(chAwareHost)
	f.chAwareC = mobileip.NewCorrespondent(chAwareHost, chAwareIC, mobileip.CorrespondentConfig{
		MobileAware:    true,
		CanDecapsulate: true,
		Codec:          f.tunnelCodec(ipv4.Zero),
	})
	f.chAware = chAwareHost.FirstAddr()
	if opts.RouteOpt.engaged() {
		recv, err := routeopt.NewReceiver(f.chAwareC, routeopt.ReceiverConfig{
			RequireAuth: opts.Auth,
		})
		assert.NoError(err, "fleet: binding-update receiver")
		f.recvAware = recv
	}

	// chProbe answers UDP probes on port 53; the port heuristic elects
	// Out-DT for them, and the echoed reply comes back In-DT.
	chProbeHost := n.AddHost("ch-probe", far)
	f.chProbe = chProbeHost.FirstAddr()
	probeSrv, err := chProbeHost.OpenUDP(ipv4.Zero, 53,
		func(src ipv4.Addr, srcPort uint16, _ ipv4.Addr, payload []byte) {
			_ = f.probeSrv.SendTo(src, srcPort, payload)
		})
	assert.NoError(err, "fleet: open probe server")
	f.probeSrv = probeSrv

	// chFacade answers UDP echoes through the socket facade's core layer:
	// both ends of a clsFacade conversation run on facade sockets, no
	// driver goroutines, proving the facade inside the sharded engine.
	chFacadeHost := n.AddHost("ch-facade", far)
	f.chFacade = chFacadeHost.FirstAddr()
	facadeSrv, err := sock.NewNet(nil, chFacadeHost, nil).ListenPacketCore(sock.Addr{Port: portFacade})
	assert.NoError(err, "fleet: open facade echo server")
	f.facadeSrv = facadeSrv
	facadeBuf := make([]byte, 64)
	facadeSrv.SetEvent(func() {
		for {
			nr, src, ok, rerr := facadeSrv.TryReadFrom(facadeBuf)
			if !ok || rerr != nil {
				return
			}
			f.facadeEchoes++
			_ = facadeSrv.WriteToCore(facadeBuf[:nr], src)
		}
	})

	// The visited cells. Cell i hangs off backbone router i%B with a
	// small deterministic latency spread, so handoff latency varies by
	// destination cell. Each cell is its own region shard: the LAN, the
	// gateway, the foreign agent and the kiosk all live there, and the
	// gateway's backbone link — latency >= 2ms by construction — becomes
	// the shard pair's conservative lookahead window.
	f.Cells = make([]*Cell, opts.Cells)
	for i := 0; i < opts.Cells; i++ {
		n.SetBuildRegion(regionOf(i))
		lan := n.AddLAN(fmt.Sprintf("cell%d", i), fmt.Sprintf("10.%d.0.0/16", i+1),
			netsim.SegmentOpts{Latency: 1 * millisecond})
		gw := n.AddRouter(fmt.Sprintf("cgw%d", i))
		n.AttachRouter(gw, lan)
		n.Link(gw, bb[i%len(bb)], vtime.Duration(2+i%5)*millisecond)

		c := &Cell{Index: i, LAN: lan}
		if (i+1)%filterEvery == 0 {
			// A source-filtering edge: home-sourced packets may not
			// leave this cell (the Section 3 hostility Out-DH dies to).
			n.SetBoundaryFilter(gw, true, true, lan.Prefix.String())
			c.Filtered = true
		}

		if opts.FAEvery > 0 {
			faHost := n.AddHost(fmt.Sprintf("fa%d", i), lan)
			fa, err := mobileip.NewForeignAgent(faHost, faHost.Ifaces()[0],
				mobileip.ForeignAgentConfig{VisitorLifetime: 60})
			assert.NoError(err, "fleet: create foreign agent")
			c.FA = fa
		}

		// The kiosk: a mobile-aware host on the cell LAN that learns
		// visiting nodes from presence announcements and answers their
		// UDP echoes In-DH — the paper's Row C same-segment case.
		kioskHost := n.AddHost(fmt.Sprintf("kiosk%d", i), lan)
		kc := mobileip.NewCorrespondent(kioskHost, icmphost.Install(kioskHost),
			mobileip.CorrespondentConfig{MobileAware: true, Codec: f.tunnelCodec(ipv4.Zero)})
		cancel, err := kc.ListenForVisitors(30)
		assert.NoError(err, "fleet: kiosk visitor listener")
		c.kioskCancel = cancel
		c.Kiosk = kioskHost.FirstAddr()
		srv := kioskHost
		c.kioskSrv, err = srv.OpenUDP(ipv4.Zero, portKiosk, f.kioskHandler(c))
		assert.NoError(err, "fleet: kiosk echo server")

		f.Cells[i] = c
	}
	n.SetBuildRegion(0)

	// The home agent, on the home LAN behind hagw.
	haHost := n.AddHost("ha", f.HomeLAN)
	ha, err := mobileip.NewHomeAgent(haHost, haHost.Ifaces()[0], mobileip.HomeAgentConfig{
		SendBindingNotices: true,
		NoticeLifetime:     30,
		RequireAuth:        opts.Auth,
		Codec:              f.tunnelCodec(ipv4.Zero),
	})
	assert.NoError(err, "fleet: create home agent")
	f.HA = ha

	f.buildRouteOpt(bb)

	// Adversaries, when armed, are hosts like any other and need routes.
	f.buildAttackers()

	n.ComputeRoutes()

	f.HomeUplink = n.Sim.SegmentByName("p2p-hagw-bb0")
	if f.HomeUplink == nil {
		assert.Unreachable("fleet: home uplink segment missing")
	}
}

// buildRouteOpt constructs the route-optimization tier's hub-side
// pieces: the correspondent-recovery bookkeeping, the regional gateway
// (Hierarchical), the HA-push updater (PushFromHA), and the
// binding-update blackholes of the fallback proof. Runs in build region
// 0, after the home agent exists and before routes are computed.
func (f *Fleet) buildRouteOpt(bb []*stack.Host) {
	opts := f.Opts
	if !opts.RouteOpt.engaged() {
		return
	}
	n := f.Net

	// Recovery bookkeeping: the home agent (and gateway) mark binding
	// movements; the aware correspondent's cache learns clear them. All
	// the hooks run on the hub shard, so the mark map needs no locks.
	// The HA-push updater chains onto OnBind after this, preserving the
	// mark hook.
	f.roMarks = make(map[ipv4.Addr]*roMark, opts.Nodes)
	f.recoveryHist = f.Net.Sim.Metrics.Histogram("routeopt/recovery_ns", recoveryBuckets())
	f.HA.OnBind = f.markBinding
	f.chAwareC.OnLearn = f.noteLearn

	if opts.RouteOpt.Hierarchical {
		// The gateway agent: its own LAN behind a metro gateway router
		// on the backbone, in the hub region — its registrations and
		// re-tunnels are hub events like the home agent's. Every cell
		// reaches it without crossing the home uplink.
		gfaLAN := n.AddLAN("gfa", "11.1.0.0/24", netsim.SegmentOpts{Latency: 1 * millisecond})
		mgw := n.AddRouter("mgw")
		n.AttachRouter(mgw, gfaLAN)
		n.Link(mgw, bb[1%len(bb)], 3*millisecond)
		gfaHost := n.AddHost("gfa", gfaLAN)
		gfa, err := routeopt.NewRegionalAgent(gfaHost, gfaHost.FirstAddr(), routeopt.RegionalAgentConfig{
			HomeAgent:   f.HA.Addr(),
			RequireAuth: opts.Auth,
		})
		assert.NoError(err, "fleet: regional gateway agent")
		gfa.OnRegister = f.markBinding
		f.GFA = gfa
		f.gfaAddr = gfa.Addr()
	}

	if opts.RouteOpt.PushFromHA {
		hup, err := routeopt.NewHAUpdater(f.HA)
		assert.NoError(err, "fleet: ha-push updater")
		f.hup = hup
	}

	if opts.RouteOpt.BlackholeUpdates {
		// Silent discard of every binding-update request at its first
		// segment: cell LANs for MN-push, the home LAN for HA-push. The
		// acks need no hole — no update arrives to be acked.
		for _, c := range f.Cells {
			faults.BlackholePort(c.LAN.Seg, udp.PortBindingUpdate)
		}
		faults.BlackholePort(f.HomeLAN.Seg, udp.PortBindingUpdate)
	}
}

// kioskHandler returns the cell kiosk's UDP echo handler.
func (f *Fleet) kioskHandler(c *Cell) stack.UDPHandler {
	return func(src ipv4.Addr, srcPort uint16, _ ipv4.Addr, payload []byte) {
		_ = c.kioskSrv.SendTo(src, srcPort, payload)
	}
}

// buildNodes creates the mobile hosts on the home network and installs
// their mobility support. Every node is detached immediately after
// construction: a fleet-sized home segment would otherwise broadcast
// every gratuitous ARP to every node, and the run starts with the
// placement storm anyway.
func (f *Fleet) buildNodes() {
	n := f.Net
	opts := f.Opts
	haAddr := f.HA.Addr()
	f.Nodes = make([]*Node, opts.Nodes)
	for i := 0; i < opts.Nodes; i++ {
		host, ifc := n.AddMobileHost(nodeName(i), f.HomeLAN)
		ic := icmphost.Install(host)

		sel := core.NewSelector(core.StartPessimistic)
		class := i % numClasses
		if class == clsPingAware {
			// The aware correspondent can decapsulate, so these nodes
			// are configured (the user-rule mechanism of Section 7.1.2)
			// to tunnel to it directly: Out-DE.
			de := core.OutDE
			sel.AddRule(core.Rule{Prefix: ipv4.PrefixFrom(f.chAware, 32), ForceMode: &de})
		}

		var auth *mobileip.Authenticator
		if opts.Auth {
			auth = f.provisionAuth(i, ifc.Addr())
		}

		// Hierarchical nodes register through the regional gateway:
		// the home agent sees the gateway's stable address, intra-metro
		// moves register locally only. Foreign-agent-attached nodes
		// keep the flat path — their care-of address (the FA) is
		// already a relay the gateway would only shadow.
		viaFA := opts.FAEvery > 0 && i%opts.FAEvery == 0
		hier := opts.RouteOpt.Hierarchical && !viaFA
		cfg := mobileip.MobileNodeConfig{
			Home:             ifc.Addr(),
			HomePrefix:       f.HomeLAN.Prefix,
			HomeAgent:        haAddr,
			Lifetime:         regLifetime,
			RegProbeInterval: 4 * second,
			Selector:         sel,
			AnnouncePresence: class == clsKiosk,
			Auth:             auth,
			Codec:            f.tunnelCodec(ifc.Addr()),
		}
		if hier {
			cfg.RegionalAgent = f.gfaAddr
		}
		mn, err := mobileip.NewMobileNode(host, ifc, cfg)
		assert.NoError(err, "fleet: create mobile node")

		ws, err := host.OpenUDP(ipv4.Zero, 0, func(ipv4.Addr, uint16, ipv4.Addr, []byte) {})
		assert.NoError(err, "fleet: node workload socket")

		// Facade nodes get a core-layer facade socket instead of using
		// the raw one: same host, same policy table, but every send and
		// receive crosses internal/sock. The drain hook keeps the queue
		// empty (replies are attributed by OnInPacket, not consumed here).
		var fconn *sock.PacketConn
		if class == clsFacade {
			fconn, err = sock.NewNet(nil, host, nil).ListenPacketCore(sock.Addr{})
			assert.NoError(err, "fleet: node facade socket")
			drainBuf := make([]byte, 64)
			fc := fconn
			fc.SetEvent(func() {
				for {
					if _, _, ok, _ := fc.TryReadFrom(drainBuf); !ok {
						return
					}
				}
			})
		}

		node := &Node{
			Idx:    i,
			MN:     mn,
			Host:   host,
			fleet:  f,
			ic:     ic,
			sock:   ws,
			fconn:  fconn,
			rng:    vtime.Stream(opts.Seed, vtime.DomainFleetNode, uint64(i)),
			class:  class,
			viaFA:  viaFA,
			hier:   hier,
			cell:   -1,
			region: 0, // built on the home LAN, in the hub region
		}
		mn.OnRegistered = func() { f.onRegistered(node) }
		mn.OnInPacket = func(mode core.InMode, pkt ipv4.Packet) { f.noteIn(node, mode, pkt) }
		f.attachRouteOpt(node, auth)
		// Built detached; the placement storm attaches it.
		mn.Detach()
		f.Nodes[i] = node
	}
}

// attachRouteOpt installs a node's per-node route-optimization pieces —
// the MN-push updater, the regional registration client — and
// provisions the keys their verifiers check against. No-op when the
// tier is off.
func (f *Fleet) attachRouteOpt(n *Node, auth *mobileip.Authenticator) {
	opts := f.Opts
	if !opts.RouteOpt.engaged() {
		return
	}
	home := n.MN.Home()
	if (opts.RouteOpt.PushUpdates || opts.RouteOpt.PushFromHA) && opts.Auth {
		f.recvAware.Keys().Provision(home, authSPIFor(n.Idx), authKeyFor(opts.Seed, n.Idx))
	}
	if opts.RouteOpt.PushUpdates {
		up, err := routeopt.NewUpdater(n.MN, routeopt.UpdaterConfig{Auth: auth})
		assert.NoError(err, "fleet: node binding updater")
		n.up = up
	}
	if opts.RouteOpt.PushFromHA {
		var hubAuth *mobileip.Authenticator
		if opts.Auth {
			// The HA-side pusher signs on the hub shard, so it gets its
			// own authenticator instance; the node's lives on the
			// node's shard.
			hubAuth = mobileip.NewAuthenticator(authSPIFor(n.Idx), authKeyFor(opts.Seed, n.Idx))
		}
		f.hup.ProvisionHome(home, hubAuth)
	}
	if n.hier {
		if opts.Auth {
			f.GFA.Keys().Provision(home, authSPIFor(n.Idx), authKeyFor(opts.Seed, n.Idx))
		}
		lr, err := routeopt.NewLocalRegistrar(n.MN, routeopt.LocalRegistrarConfig{
			Regional: f.gfaAddr,
			Auth:     auth,
		})
		assert.NoError(err, "fleet: node local registrar")
		lr.OnAccepted = func(ipv4.Addr) { f.onRegionalAccepted(n) }
		n.lr = lr
	}
}
