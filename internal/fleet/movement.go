package fleet

import "mob4x4/internal/vtime"

// Movement models. Each node owns a private RNG derived from (seed,
// node index), so its itinerary is byte-reproducible per seed and
// independent of every other node's — and of event interleaving, since
// one node's draws are totally ordered by its own vtime events.
//
// Two models:
//
//   - waypoint: the classic random-waypoint pattern flattened onto the
//     cell grid — pick a uniformly random destination cell, go there,
//     dwell for a uniform [3s,8s) pause, repeat.
//   - markov: a cell-transition chain with neighbor bias — from cell i
//     the node hops to i-1 or i+1 (ring topology) with probability
//     0.35 each, teleports uniformly with 0.1, and stays put with 0.2;
//     dwell is uniform [2s,6s). Models campus-style locality.

// nextCell draws the node's next destination cell, or -1 to stay put
// this step (markov self-transition).
func (f *Fleet) nextCell(n *Node) int {
	k := len(f.Cells)
	if k == 1 {
		if n.cell < 0 {
			return 0
		}
		return -1
	}
	switch f.Opts.Model {
	case ModelMarkov:
		if n.cell < 0 {
			return n.rng.IntN(k)
		}
		switch p := n.rng.Float64(); {
		case p < 0.35:
			return (n.cell + k - 1) % k
		case p < 0.70:
			return (n.cell + 1) % k
		case p < 0.80:
			return n.rng.IntN(k)
		default:
			return -1 // dwell in place
		}
	default: // ModelWaypoint
		c := n.rng.IntN(k)
		if c == n.cell {
			// A waypoint is always somewhere else.
			c = (c + 1) % k
		}
		return c
	}
}

// dwell draws how long the node stays before its next movement step.
func (f *Fleet) dwell(n *Node) vtime.Duration {
	if f.Opts.Model == ModelMarkov {
		return 2*second + vtime.Duration(n.rng.Int64N(int64(4*second)))
	}
	return 3*second + vtime.Duration(n.rng.Int64N(int64(5*second)))
}

// hop performs one movement step: draw a destination and a dwell, then
// either move locally (markov self-teleport back into the current cell)
// or migrate to the destination cell's region shard. Also the entry point
// for commanded moves (placement and the mass-move storm), which simply
// hop early. Runs on the node's current shard.
//
// The draws happen up front, in a fixed order (cell, then dwell), before
// the node's fate forks: the node's RNG stream is consumed only by its
// own events, which are totally ordered in virtual time, so the draw
// sequence — and with it the itinerary — is identical for any worker
// count.
func (f *Fleet) hop(n *Node) {
	if n.stopped || !f.rs[n.region].movementOn {
		return
	}
	c := f.nextCell(n)
	d := f.dwell(n)
	if c >= 0 && regionOf(c) != n.region {
		f.migrate(n, c, d)
		return
	}
	if c >= 0 {
		f.move(n, c)
	}
	f.armMove(n, d)
}

// armMove arms (or re-arms) the node's next movement step d from now, on
// the node's current shard.
func (f *Fleet) armMove(n *Node, d vtime.Duration) {
	if n.moveTimer == nil {
		n.moveTimer = vtime.NewTimer(func() { f.hop(n) })
	}
	n.moveTimer.Reset(n.Host.Sched(), d)
}

// migrate ships node n to cell c's region: the radio goes dark here, the
// laptop is in transit for migrationTransit of virtual time, and arrival
// on the destination shard completes the move. Everything pending on the
// old shard — MIP timers, fleet timers, reassembly and ARP jobs — is
// stopped before the node crosses; arrival re-arms the same handles on
// the destination shard.
func (f *Fleet) migrate(n *Node, c int, d vtime.Duration) {
	src := n.Host.Sim()
	if n.up != nil {
		n.up.Quiesce()
	}
	if n.lr != nil {
		n.lr.Quiesce()
	}
	if n.hier {
		// A hierarchical node keeps its home registration across the
		// transit: the home agent's view (the stable gateway address)
		// is still correct, and the regional re-registration after
		// arrival is the whole point of the tier.
		n.MN.DetachRetain()
	} else {
		n.MN.Detach()
	}
	n.moveTimer.Stop()
	n.tickTimer.Stop()
	n.cmdTimer.Stop()
	n.Host.Quiesce()
	n.migCell = c
	n.migDwell = d
	dst := f.Net.Regions()[regionOf(c)]
	src.Sched.SendTo(dst.Sched, src.Now().Add(migrationTransit), migrateArrive, n)
}

// migrateArrive is the cross-shard arrival trampoline (a top-level func
// so SendTo carries no closure).
func migrateArrive(a any) {
	n := a.(*Node)
	n.fleet.arrive(n)
}

// arrive completes a migration on the destination shard: rehome the host
// and the mobility daemon, attach to the drawn cell, and re-arm the
// node's timers on the new scheduler.
func (f *Fleet) arrive(n *Node) {
	region := regionOf(n.migCell)
	sim := f.Net.Regions()[region]
	n.Host.Rehome(sim)
	n.MN.Rehome()
	n.region = region
	f.move(n, n.migCell)
	f.armMove(n, n.migDwell)
	f.startTicker(n)
	if n.cmdAt != 0 {
		if n.cmdAt.Sub(sim.Now()) <= 0 {
			// The commanded move fell inside the transit window; the move
			// that just completed satisfies it.
			n.cmdAt = 0
		} else {
			f.armCmd(n)
		}
	}
}

// armCmd arms the node's commanded mass-move timer on its current shard.
func (f *Fleet) armCmd(n *Node) {
	d := n.cmdAt.Sub(n.Host.Sim().Now())
	if n.cmdTimer == nil {
		n.cmdTimer = vtime.NewTimer(func() { f.cmdFire(n) })
	}
	n.cmdTimer.Reset(n.Host.Sched(), d)
}

// cmdFire executes the commanded mass-move.
func (f *Fleet) cmdFire(n *Node) {
	n.cmdAt = 0
	f.hop(n)
}

// move attaches node n to cell c and starts the re-registration that
// completes the handoff. Foreign-agent nodes attach through the cell's
// agent (shared care-of address, relayed registration); self-sufficient
// nodes take their own care-of address on the cell LAN. A hierarchical
// node that still holds its home registration moves regionally: only
// the gateway learns the new cell, and the gateway's accept is what
// completes the handoff. The node's host must already live in cell c's
// region.
func (f *Fleet) move(n *Node, c int) {
	n.moveAt = n.Host.Sim().Now()
	n.cell = c
	n.movedRegional = false
	cell := f.Cells[c]
	switch {
	case n.viaFA && cell.FA != nil:
		n.MN.MoveToForeignAgent(cell.LAN.Seg, cell.FA.Addr())
	case n.hier && n.MN.Registered():
		n.movedRegional = true
		n.MN.MoveToRegional(cell.LAN.Seg, f.careOf(c, n.Idx), cell.LAN.Prefix, cell.LAN.Gateway)
		n.lr.Register()
	default:
		n.MN.MoveTo(cell.LAN.Seg, f.careOf(c, n.Idx), cell.LAN.Prefix, cell.LAN.Gateway)
		if n.hier {
			// First attach (or a re-attach after losing the home
			// registration): the full home path runs, and the gateway
			// learns the cell in parallel so the home agent's tunnels
			// to the stable address have somewhere to go.
			n.lr.Register()
		}
	}
}
