// Package fleet is the fleet-scale roaming engine: a parameterized
// metro-scale topology (one home network, K visited cells behind a
// routed backbone, far correspondents), N mobile nodes driven by seeded
// movement models, and a scripted handoff storm that stresses the
// registration machinery the way Section 3 of the paper says real
// deployments will — everything moving at once, the home network
// partitioning mid-churn, and every drop accounted for.
//
// Determinism contract: a Fleet's Result is a pure function of its
// Options. Every random draw comes either from the simulation
// scheduler's seeded RNG or from a per-node RNG derived from (seed,
// node index); no wall-clock time, no map-iteration-order dependence.
// Two runs with the same Options are byte-identical, regardless of how
// many sibling trials run concurrently in the same process.
package fleet

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"mob4x4/internal/assert"
	"mob4x4/internal/core"
	"mob4x4/internal/encap"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/routeopt"
	"mob4x4/internal/sock"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
	"mob4x4/internal/vtime"
)

// Local duration units (vtime.Duration is nanoseconds).
const (
	millisecond = vtime.Duration(1e6)
	second      = vtime.Duration(1e9)
)

// migrationTransit is the virtual transit delay of a node moving between
// regions: the radio is dark while the laptop rides to the next cell. It
// doubles as the shard group's default lookahead — a migration is the only
// cross-region event that does not travel over a declared link, so its
// delay is the floor on how far ahead any shard must announce one. Every
// cross-region network link has latency >= this (the closest cell hangs
// 2ms off the backbone), keeping the default a valid group-wide floor.
const migrationTransit = 2 * millisecond

// Movement model names accepted by Options.Model.
const (
	ModelWaypoint = "waypoint"
	ModelMarkov   = "markov"
)

// MaxCells bounds the cell count: cell i uses prefix 10.(i+1).0.0/16,
// and the builder's point-to-point transfer networks are allocated from
// 10.200.0.0, so cells must stay below that.
const MaxCells = 128

// nodeHostBase is the first host number inside a cell prefix reserved
// for node care-of addresses (numbers below it belong to the cell
// gateway, foreign agent and kiosk). Node i's care-of address in any
// cell is Prefix.Host(nodeHostBase+i) — allocated by arithmetic, not by
// a per-move allocator, so moving never grows an address table.
const nodeHostBase = 16

// Workload classes, assigned round-robin by node index. Each exercises
// a different region of the 4x4 grid.
const (
	clsPingNaive = iota // ICMP to an unaware far host: replies In-IE
	clsPingAware        // Out-DE to an aware far host: replies In-IE then In-DE
	clsProbe            // UDP to port 53: Out-DT out, In-DT back
	clsKiosk            // UDP to the cell kiosk: Out-DH out, In-DH back
	clsFacade           // UDP echo through the sock facade's core layer: Out-IE out, In-IE back
	numClasses
)

// portKiosk is the UDP port the per-cell kiosk echo service listens on.
const portKiosk = 9

// portFacade is the UDP port of the far facade echo service (clsFacade).
const portFacade = 7

// handoffBuckets returns nanosecond bounds for handoff latency: one
// uncontested registration round trip sits in the low milliseconds; a
// handoff that rode out a partition on retry backoff can take tens of
// seconds. A fresh slice per call keeps the package free of mutable
// globals (shard safety); it is called once per Fleet.
func handoffBuckets() []int64 {
	return []int64{
		1e6, 2e6, 5e6, 10e6, 25e6, 50e6, 100e6, 250e6, 500e6,
		1e9, 2e9, 5e9, 10e9, 20e9,
	}
}

// Options parameterizes a fleet. The zero value of any field selects
// the documented default.
type Options struct {
	Seed  int64
	Nodes int    // mobile node count (default 256)
	Cells int    // visited cell count (default 8, max MaxCells)
	Model string // ModelWaypoint (default) or ModelMarkov

	// Workers is the number of goroutines driving the region shards
	// (default 1). The region structure — one shard per cell plus the
	// hub — is fixed by Cells, so the result is byte-identical for any
	// Workers value; more workers only buy wall-clock speed.
	Workers int

	FAEvery int // every k-th node attaches via the cell's foreign agent (0 means the default 5; negative disables)

	// Auth provisions a mobility security association per node: a key
	// derived from (Seed, index) shared by the node and the home agent,
	// HMAC authenticators on every registration message, and the home
	// agent's sliding identification window (DESIGN.md §11).
	Auth bool

	// Attack arms the adversarial storm of E15: binding thieves, a
	// replayer and rogue agents attacking the fleet mid-run.
	Attack AttackOptions

	// RouteOpt arms the route-optimization tier of E17: pushed
	// correspondent binding updates, compact encapsulation and
	// hierarchical local registration.
	RouteOpt RouteOptOptions
}

// The metro's fixed shape.
const (
	backboneRouters = 4  // backbone router count
	filterEvery     = 4  // every k-th cell gets a source-filtering boundary router
	regLifetime     = 20 // registration lifetime in seconds
)

// The storm schedule, relative to the run start (see Run).
const (
	placeWindow    = 2 * second  // initial attach staggered over this window
	partitionAt    = 12 * second // home uplink cut at
	partitionFor   = 6 * second  // ... for this long
	massMoveAt     = 24 * second // commanded all-nodes move at
	massMoveWindow = 2 * second  // ... jittered over this window
	quiesceFor     = 3 * second  // movement stops this long before endAt
	endAt          = 34 * second // measurement ends at
)

// RouteOptOptions parameterizes the route-optimization tier. Each piece
// is independent so experiments can measure it in isolation; the whole
// tier's bookkeeping (the correspondent-recovery histogram and the
// binding-update receiver) is armed when any field is set, or by
// Enabled alone for a measured baseline.
type RouteOptOptions struct {
	// Enabled arms the tier's measurement — the recovery histogram and
	// the aware correspondent's update receiver — without any feature:
	// the with/without baseline. Any feature flag implies it.
	Enabled bool

	// PushUpdates gives every mobile node a binding updater: on each
	// completed handoff it pushes the new care-of address straight to
	// its active correspondents (routeopt.Updater).
	PushUpdates bool

	// PushFromHA installs the home-agent-push alternative
	// (routeopt.HAUpdater): the agent pushes when a binding moves, to
	// the correspondents it saw tunneling In-IE.
	PushFromHA bool

	// Compact switches every tunnel endpoint to compact encapsulation
	// (encap.Compact). Implies FAEvery=-1: a shared foreign agent
	// cannot reconstruct per-visitor elided home addresses. Ignored
	// when Hierarchical is set, for the same reason one tier up — the
	// gateway decapsulates tunnels for every home in the metro.
	Compact bool

	// Hierarchical builds the regional gateway tier: a gateway foreign
	// agent (routeopt.RegionalAgent) aggregates the metro's cells
	// behind one stable care-of address, and every self-sufficient
	// node registers intra-metro handoffs locally with it instead of
	// across the home uplink. Foreign-agent-attached nodes keep their
	// flat registration path.
	Hierarchical bool

	// BlackholeUpdates silently discards every binding-update request
	// (UDP 435) at the cell and home LANs — the fault-injection proof
	// that the push tier fails hard to In-IE triangle routing without
	// losing conversations.
	BlackholeUpdates bool
}

// engaged reports whether any part of the tier (or its baseline
// measurement) is armed.
func (r RouteOptOptions) engaged() bool {
	return r.Enabled || r.PushUpdates || r.PushFromHA || r.Compact || r.Hierarchical
}

// AttackOptions arms the adversarial storm; the whole storm is off
// unless Enabled. The plan itself is fixed by the attack constants below.
type AttackOptions struct {
	Enabled bool
}

// The attack plan. Every window must clear the home-uplink partition
// ([partitionAt, partitionAt+partitionFor)): attack traffic that dies on
// a downed link is accounted as a partition drop, not an auth reject, and
// the exact-attribution invariant would misfire. TestStormScheduleWindows
// pins this. Besides the thieves, one replayer taps the home LAN and one
// rogue agent taps cell 1 mod Cells.
const (
	thieves = 2 // binding thieves, thief k on cell k mod Cells

	forgeAt     = 5 * second // thief forge storm starts
	forgeWindow = 5 * second // ... and is spread over this window
	forgeCount  = 20         // forgeries per thief

	captureAt   = 4 * second        // replayer and rogue taps install
	captureFor  = 5 * second        // ... and hold for this long
	replayDelay = 250 * millisecond // prompt re-emission lag: auth_replay

	lateReplayAt = 30 * second // stale re-emission burst: auth_stale_id
	lateReplays  = 8           // captures re-emitted in the late burst
)

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 256
	}
	if o.Cells <= 0 {
		o.Cells = 8
	}
	if o.Cells > MaxCells {
		o.Cells = MaxCells
	}
	if o.Model == "" {
		o.Model = ModelWaypoint
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.FAEvery == 0 {
		o.FAEvery = 5
	}
	if o.RouteOpt.Hierarchical {
		o.RouteOpt.Compact = false
	}
	if o.RouteOpt.Compact {
		o.FAEvery = -1
	}
	return o
}

// Cell is one visited network: a LAN behind its own gateway router,
// with a foreign agent and a mobile-aware kiosk host on-link.
type Cell struct {
	Index    int
	LAN      *inet.LAN
	FA       *mobileip.ForeignAgent
	Kiosk    ipv4.Addr // kiosk echo service address
	Filtered bool      // gateway enforces source-address filtering

	kioskSrv    *stack.UDPSocket
	kioskCancel func()
}

// Node is one mobile host under fleet control.
type Node struct {
	Idx  int
	MN   *mobileip.MobileNode
	Host *stack.Host

	fleet *Fleet
	ic    *icmphost.ICMP
	sock  *stack.UDPSocket // workload socket (probe + kiosk traffic, reply sink)
	fconn *sock.PacketConn // facade socket (clsFacade nodes only, core layer)
	rng   *rand.Rand
	class int
	viaFA bool

	// Route-optimization tier attachments (nil/false unless the
	// corresponding RouteOpt option is set). hier marks a node on the
	// hierarchical registration path; movedRegional is true while the
	// node's latest move awaits its regional registration reply — the
	// accept completes the handoff (see onRegionalAccepted).
	up            *routeopt.Updater
	lr            *routeopt.LocalRegistrar
	hier          bool
	movedRegional bool

	cell   int // current cell index; -1 until first placement
	region int // current region shard index (0 = hub)
	moveAt vtime.Time

	// migCell/migDwell carry the drawn destination and dwell across a
	// cross-region migration: the node is quiescent in flight, so parking
	// them on the Node itself costs no allocation and no synchronization.
	migCell  int
	migDwell vtime.Duration

	lastOut core.OutMode // out mode of the most recent workload send
	hasOut  bool
	seq     uint16

	moveTimer *vtime.Timer
	tickTimer *vtime.Timer
	// cmdTimer fires the node's commanded mass-move; cmdAt is the absolute
	// command time, drawn at setup. The timer travels with the node: each
	// migration cancels it on the old shard and re-arms on the new one.
	cmdTimer *vtime.Timer
	cmdAt    vtime.Time
	stopped  bool
}

// regionState is the per-region slice of the fleet's mutable run state.
// Every field is written only from events executing on that region's
// shard, which is what makes the engine race-free without locks; the
// measurement phase (workers joined) merges the slices.
type regionState struct {
	handoffHist *metrics.Histogram // this region's fleet/handoff_ns
	handoffs    *metrics.Counter   // this region's fleet/handoffs
	modeMix     [core.NumOutModes][core.NumInModes]uint64

	// expectFilterDrops is set the moment a node in this region emits a
	// packet the boundary filter is guaranteed to drop (a foreign-agent-
	// attached node sending home-sourced traffic out of a filtered cell).
	expectFilterDrops bool

	trafficOn  bool
	movementOn bool
}

// Fleet is a built (but not yet run) fleet simulation. The topology is
// sharded into regions — region 0 (the hub) holds the home network, the
// backbone and the far correspondents; region i+1 holds cell i — each
// with its own netsim.Sim on its own vtime shard, synchronized by the
// conservative lookahead of the cross-region links.
type Fleet struct {
	Opts Options
	Net  *inet.Network
	HA   *mobileip.HomeAgent

	HomeLAN    *inet.LAN
	HomeUplink *netsim.Segment // the link the storm partitions
	Cells      []*Cell
	Nodes      []*Node

	group *vtime.Group
	rs    []*regionState // indexed by region shard

	chNaive  ipv4.Addr
	chAware  ipv4.Addr
	chProbe  ipv4.Addr
	chFacade ipv4.Addr

	// Per-fleet workload payloads (see initPayloads).
	pingPayload   []byte
	probePayload  []byte
	kioskPayload  []byte
	facadePayload []byte

	probeSrv  *stack.UDPSocket
	facadeSrv *sock.PacketConn // facade echo server (core layer, hub shard)
	// facadeEchoes counts requests the facade server answered; written
	// only from its event hook on the hub shard.
	facadeEchoes uint64
	cancels      []func() // listeners/sockets to close during cleanup

	// attack holds the adversarial actors when Opts.Attack.Enabled; nil
	// otherwise, and every attack path is skipped.
	attack *attackState

	// Route-optimization tier (nil/zero unless Opts.RouteOpt engaged).
	// GFA is the hierarchical gateway; gfaAddr caches its address for
	// the hot markBinding compare. chAwareC is the aware far
	// correspondent, recvAware its binding-update receiver, hup the
	// HA-push updater.
	GFA       *routeopt.RegionalAgent
	gfaAddr   ipv4.Addr
	chAwareC  *mobileip.Correspondent
	recvAware *routeopt.Receiver
	hup       *routeopt.HAUpdater

	// Correspondent-recovery bookkeeping, all hub-shard state: the home
	// agent (and gateway) mark each real binding movement, and the aware
	// correspondent's cache learns observe how long the correspondent
	// routed against stale information. roMarks is point-lookup only,
	// never iterated.
	roMarks      map[ipv4.Addr]*roMark
	recoveryHist *metrics.Histogram
}

// roMark is one home address's latest binding movement as seen at the
// hub: the care-of address it moved to, when, and whether the aware
// correspondent has caught up yet.
type roMark struct {
	careOf ipv4.Addr
	at     vtime.Time
	seen   bool
}

// regionOf maps a cell index to its region shard index.
func regionOf(cell int) int { return cell + 1 }

// New builds a fleet. The topology and all nodes are constructed; the
// nodes start detached and attach during the placement window of Run.
func New(opts Options) *Fleet {
	opts = opts.withDefaults()
	f := &Fleet{Opts: opts}
	f.initPayloads()

	// One region shard per cell plus the hub. MAC addresses come from a
	// cluster-wide allocator so sender exclusion by MAC works across
	// split segments.
	regions := regionOf(opts.Cells)
	f.group = vtime.NewGroup(opts.Seed, regions)
	assert.NoError(f.group.SetDefaultLookahead(migrationTransit), "fleet: default lookahead")
	cluster := netsim.NewCluster()
	sims := make([]*netsim.Sim, regions)
	f.rs = make([]*regionState, regions)
	for i := range sims {
		sims[i] = cluster.NewSim(f.group.Shard(i))
		f.rs[i] = &regionState{
			handoffHist: sims[i].Metrics.Histogram("fleet/handoff_ns", handoffBuckets()),
			handoffs:    sims[i].Metrics.Counter("fleet/handoffs"),
			trafficOn:   true,
			movementOn:  true,
		}
	}
	f.Net = inet.NewSharded(sims)
	f.buildTopology()
	f.buildNodes()
	return f
}

// careOf returns node idx's care-of address in cell c. Purely
// arithmetic: every (node, cell) pair has a fixed, unique address.
func (f *Fleet) careOf(c, idx int) ipv4.Addr {
	return f.Cells[c].LAN.Prefix.Host(nodeHostBase + idx)
}

// onRegistered records a completed handoff: the re-registration that
// followed the node's most recent attachment was accepted. It runs on the
// node's current shard and charges that region's accumulators. With the
// push tier armed, a completed handoff is also the moment to tell the
// node's correspondents where it went.
func (f *Fleet) onRegistered(n *Node) {
	n.movedRegional = false
	rs := f.rs[n.region]
	rs.handoffs.Inc()
	rs.handoffHist.ObserveDuration(n.Host.Sim().Now().Sub(n.moveAt))
	if n.up != nil {
		n.up.PushBinding()
	}
}

// onRegionalAccepted fires when the gateway accepted a node's regional
// registration. When the node's latest move took the regional path,
// this accept is what completes the handoff — the home agent never saw
// the move. The first attach in a metro runs both registrations; the
// movedRegional flag makes whichever acceptance lands count the handoff
// exactly once.
func (f *Fleet) onRegionalAccepted(n *Node) {
	if n.movedRegional {
		f.onRegistered(n)
	}
}

// recoveryBuckets extends the handoff buckets upward: a correspondent
// that must wait out a partition plus a cache TTL before relearning a
// binding can lag most of a minute.
func recoveryBuckets() []int64 {
	return append(handoffBuckets(), 40e9, 60e9)
}

// markBinding records a real binding movement at the hub: the home
// agent accepted a registration for a new care-of address, or the
// gateway accepted a regional one. Renewals at the same address are not
// movements; neither is the home agent's view of a hierarchical node
// (the stable gateway address) changing hands.
func (f *Fleet) markBinding(home, careOf ipv4.Addr) {
	if careOf == f.gfaAddr {
		return
	}
	m := f.roMarks[home]
	if m == nil {
		m = &roMark{}
		f.roMarks[home] = m
	}
	if m.careOf == careOf {
		return
	}
	m.careOf = careOf
	m.at = f.Net.Sim.Now()
	m.seen = false
}

// noteLearn observes the aware correspondent catching up with a marked
// movement: the lag from the binding moving to the correspondent's
// cache holding the new care-of address is the window it routed (or
// would have routed) against stale information.
func (f *Fleet) noteLearn(b core.Binding) {
	m := f.roMarks[b.Home]
	if m == nil || m.seen || m.careOf != b.CareOf {
		return
	}
	m.seen = true
	f.recoveryHist.ObserveDuration(f.Net.Sim.Now().Sub(m.at))
}

// tunnelCodec returns the fleet's tunnel codec for an endpoint whose
// mobile home address is home (zero for agents and correspondents,
// which pass each binding's home to AppendEncap). nil selects the
// default IPIP.
func (f *Fleet) tunnelCodec(home ipv4.Addr) encap.Codec {
	if !f.Opts.RouteOpt.Compact {
		return nil
	}
	return encap.Compact{Home: home}
}

// noteIn attributes one classified arrival to the (Out, In) pair of the
// conversation that elicited it. Registration replies and binding-update
// acks are the mobility machinery's own traffic (always In-DT by Section
// 6.4) and are excluded so the matrix reflects workload conversations
// only.
func (f *Fleet) noteIn(n *Node, mode core.InMode, pkt ipv4.Packet) {
	if pkt.Protocol == ipv4.ProtoUDP && len(pkt.Payload) >= 2 {
		if sp := binary.BigEndian.Uint16(pkt.Payload[0:2]); sp == udp.PortRegistration ||
			sp == udp.PortBindingUpdate {
			return
		}
	}
	if !n.hasOut {
		return
	}
	f.rs[n.region].modeMix[n.lastOut][mode]++
}

// nodeName formats the canonical host name for node idx.
func nodeName(idx int) string { return fmt.Sprintf("mh%04d", idx) }
