package fleet

import (
	"mob4x4/internal/core"
	"mob4x4/internal/sock"
	"mob4x4/internal/vtime"
)

// Workload: every node sends one small request per ~1s tick; the reply
// (if any) comes back through whichever In mode the correspondent
// chooses, and noteIn attributes it to the Out mode of the send. One
// outstanding conversation per node keeps the attribution sound.

// Workload payload bytes, built once per Fleet (not package-level: the
// slices would be process-global mutable state shared across shards).
func (f *Fleet) initPayloads() {
	f.pingPayload = []byte("fleet-ping")
	f.probePayload = []byte("fleet-probe")
	f.kioskPayload = []byte("fleet-kiosk")
	f.facadePayload = []byte("fleet-facade")
}

// startTicker arms node n's workload tick on its current shard,
// phase-offset by the node's RNG so ticks spread across the period
// instead of bursting. Called at every migration arrival (migrate stops
// the ticker; the fresh phase draw is deterministic because it sits in
// the node's own event order).
func (f *Fleet) startTicker(n *Node) {
	first := vtime.Duration(n.rng.Int64N(int64(second)))
	if n.tickTimer == nil {
		n.tickTimer = vtime.NewTimer(func() { f.tick(n) })
	}
	n.tickTimer.Reset(n.Host.Sched(), first)
}

// tick sends one workload request and re-arms.
func (f *Fleet) tick(n *Node) {
	if !f.rs[n.region].trafficOn || n.stopped {
		return
	}
	f.sendWorkload(n)
	n.tickTimer.Reset(n.Host.Sched(), second+vtime.Duration(n.rng.Int64N(int64(100*millisecond))))
}

// sendWorkload emits node n's class-specific request and records which
// Out mode the policy chose for it (read off the node's own per-mode
// counters around the synchronous send).
func (f *Fleet) sendWorkload(n *Node) {
	if n.cell < 0 {
		return
	}
	before := n.MN.Stats.OutByMode
	n.seq++
	switch n.class {
	case clsPingNaive:
		_ = n.ic.Ping(n.MN.Home(), f.chNaive, uint16(n.Idx), n.seq, f.pingPayload)
	case clsPingAware:
		_ = n.ic.Ping(n.MN.Home(), f.chAware, uint16(n.Idx), n.seq, f.pingPayload)
	case clsProbe:
		_ = n.sock.SendTo(f.chProbe, 53, f.probePayload)
	case clsKiosk:
		_ = n.sock.SendTo(f.Cells[n.cell].Kiosk, portKiosk, f.kioskPayload)
	case clsFacade:
		// Through the facade's core layer: the send resolves its source
		// through the node's mobility policy exactly like a raw socket,
		// and both ends of the conversation live on facade sockets.
		_ = n.fconn.WriteToCore(f.facadePayload, sock.Addr{IP: f.chFacade, Port: portFacade, Proto: "udp"})
	}
	after := n.MN.Stats.OutByMode
	for m := range after {
		if after[m] != before[m] {
			n.lastOut = core.OutMode(m)
			n.hasOut = true
		}
	}
	// A foreign-agent visitor in a filtered cell has no choice but
	// home-sourced packets (Out-DH), and any of them bound past the
	// boundary router is guaranteed dead: the invariant suite now owes
	// the drop-cause vector at least one filter drop.
	if n.viaFA && n.class != clsKiosk && f.Cells[n.cell].Filtered {
		f.rs[n.region].expectFilterDrops = true
	}
}
