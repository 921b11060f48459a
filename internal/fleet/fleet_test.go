package fleet

import (
	"reflect"
	"runtime"
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/netsim"
	"mob4x4/internal/race"
)

// smallOpts is the CI-sized fleet: big enough to populate every
// workload class, every cell role (filtered, foreign-agent) and the
// whole storm schedule, small enough for -race.
func smallOpts(seed int64) Options {
	return Options{Seed: seed, Nodes: 24, Cells: 4}
}

func TestFleetStormInvariants(t *testing.T) {
	outstanding := netsim.BufOutstanding()
	r := New(smallOpts(1)).Run()
	for _, v := range r.Violations {
		t.Errorf("violation: %s", v)
	}
	if got := netsim.BufOutstanding(); got != outstanding {
		t.Errorf("pooled buffers outstanding drifted %d -> %d across the run", outstanding, got)
	}
	if r.Handoffs == 0 || r.Moves == 0 {
		t.Fatalf("storm moved nothing: moves=%d handoffs=%d", r.Moves, r.Handoffs)
	}
	if r.HandoffP50 <= 0 || r.HandoffP50 > r.HandoffP95 || r.HandoffP95 > r.HandoffP99 {
		t.Errorf("handoff quantiles out of order: p50=%d p95=%d p99=%d",
			r.HandoffP50, r.HandoffP95, r.HandoffP99)
	}
}

// TestFleetModeMixCoversGrid verifies each workload class lands its
// conversations where the 4x4 taxonomy says it must: naive-host pings
// come back In-IE, forced Out-DE conversations migrate to In-DE once
// the binding notice arrives, port-heuristic probes stay on the
// temporary address both ways, and kiosk traffic never leaves the cell.
func TestFleetModeMixCoversGrid(t *testing.T) {
	r := New(smallOpts(1)).Run()
	type cell struct {
		out  core.OutMode
		in   core.InMode
		name string
	}
	for _, c := range []cell{
		{core.OutIE, core.InIE, "naive ping"},
		{core.OutDE, core.InDE, "aware ping after notice"},
		{core.OutDT, core.InDT, "port-53 probe"},
		{core.OutDH, core.InDH, "kiosk echo"},
	} {
		if r.ModeMix[c.out][c.in] == 0 {
			t.Errorf("%s: ModeMix[%v][%v] = 0, want > 0\nmix=%v", c.name, c.out, c.in, r.ModeMix)
		}
	}
	// Encapsulated requests never elicit same-segment replies: the far
	// correspondents are not on the node's link.
	if r.ModeMix[core.OutIE][core.InDH] != 0 || r.ModeMix[core.OutDE][core.InDH] != 0 {
		t.Errorf("far conversations produced In-DH replies: mix=%v", r.ModeMix)
	}
}

// TestFleetWorkerCountInvariant is the sharded engine's core acceptance
// property: the Workers knob buys wall-clock parallelism only. The region
// structure, event keys and lookahead bounds are Workers-independent, so
// every observable — counters, quantiles, the merged metrics snapshot —
// must match the serial run exactly.
func TestFleetWorkerCountInvariant(t *testing.T) {
	base := smallOpts(7)
	serial := New(base).Run()
	for _, workers := range []int{2, 3, 8} {
		opts := base
		opts.Workers = workers
		got := New(opts).Run()
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d diverged from serial run:\n%+v\nvs\n%+v", workers, serial, got)
		}
	}
}

// TestFleetMigrationKeepsClassesAlive: after the storm (placement plus
// mass move, so every node migrated across region shards at least twice),
// all four workload classes still complete conversations — the
// rehoming protocol preserves sockets, handlers and instruments.
func TestFleetMigrationKeepsClassesAlive(t *testing.T) {
	opts := smallOpts(9)
	opts.Workers = 2
	r := New(opts).Run()
	for _, v := range r.Violations {
		t.Errorf("violation: %s", v)
	}
	if r.Moves < uint64(2*opts.Nodes) {
		t.Errorf("storm commanded only %d moves for %d nodes; migrations under-exercised", r.Moves, opts.Nodes)
	}
}

func TestFleetDeterministicRepeat(t *testing.T) {
	a := New(smallOpts(3)).Run()
	b := New(smallOpts(3)).Run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs of the same options diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestFleetCrossSeedDiffers(t *testing.T) {
	a := New(smallOpts(3)).Run()
	b := New(smallOpts(4)).Run()
	if reflect.DeepEqual(a.ModeMix, b.ModeMix) && a.Moves == b.Moves && a.Handoffs == b.Handoffs {
		t.Errorf("seeds 3 and 4 produced identical storms (moves=%d handoffs=%d)", a.Moves, a.Handoffs)
	}
}

func TestFleetMarkovModel(t *testing.T) {
	opts := smallOpts(2)
	opts.Model = ModelMarkov
	r := New(opts).Run()
	for _, v := range r.Violations {
		t.Errorf("violation: %s", v)
	}
	w := New(smallOpts(2)).Run()
	if r.Moves == w.Moves && r.Handoffs == w.Handoffs {
		t.Errorf("markov and waypoint itineraries identical for seed 2: moves=%d handoffs=%d", r.Moves, r.Handoffs)
	}
}

// TestFleetMarkovLocality checks the chain's neighbor bias: most markov
// hops land in an adjacent cell on the ring, while random waypoints at
// K=8 mostly do not.
func TestFleetMarkovLocality(t *testing.T) {
	for _, model := range []string{ModelMarkov, ModelWaypoint} {
		opts := Options{Seed: 5, Nodes: 16, Cells: 8, Model: model}
		f := New(opts)
		k := len(f.Cells)
		var adjacent, far int
		for _, n := range f.Nodes {
			cur := n.rng.IntN(k) // stand-in for a current cell
			n.cell = cur
			for i := 0; i < 200; i++ {
				next := f.nextCell(n)
				if next < 0 {
					continue
				}
				d := (next - n.cell + k) % k
				if d == 1 || d == k-1 {
					adjacent++
				} else {
					far++
				}
				n.cell = next
			}
		}
		frac := float64(adjacent) / float64(adjacent+far)
		if model == ModelMarkov && frac < 0.6 {
			t.Errorf("markov adjacency fraction = %.2f, want >= 0.6", frac)
		}
		if model == ModelWaypoint && frac > 0.5 {
			t.Errorf("waypoint adjacency fraction = %.2f, want < 0.5", frac)
		}
	}
}

// TestFleetCareOfUnique: the arithmetic care-of plan gives every (node,
// cell) pair a distinct address, disjoint from the cell's
// infrastructure block.
func TestFleetCareOfUnique(t *testing.T) {
	f := New(Options{Seed: 1, Nodes: 40, Cells: 3})
	seen := make(map[string]bool)
	for c := range f.Cells {
		for i := range f.Nodes {
			a := f.careOf(c, i).String()
			if seen[a] {
				t.Fatalf("care-of %s assigned twice", a)
			}
			seen[a] = true
		}
		if f.careOf(c, 0) == f.Cells[c].Kiosk || (f.Cells[c].FA != nil && f.careOf(c, 0) == f.Cells[c].FA.Addr()) {
			t.Fatalf("node care-of collides with cell infrastructure")
		}
	}
	// Dispose of the built-but-never-run fleet so its node sockets and
	// listeners do not linger (nothing is scheduled yet, so a plain
	// drain suffices).
	f.Net.Run()
}

func TestFleetDefaultsClamp(t *testing.T) {
	o := Options{Cells: 100000}.withDefaults()
	if o.Cells != MaxCells {
		t.Errorf("Cells clamped to %d, want %d", o.Cells, MaxCells)
	}
	if o.Model != ModelWaypoint || o.Nodes == 0 || o.FAEvery == 0 {
		t.Errorf("defaults not filled: %+v", o)
	}
}

// TestStormScheduleWindows pins the storm timeline the attack accounting
// depends on: attack traffic that dies on the partitioned home uplink is
// a partition drop, not an auth reject, so every attack window must clear
// the partition, and every movement must end before the final census.
func TestStormScheduleWindows(t *testing.T) {
	healAt := partitionAt + partitionFor
	if forgeAt+forgeWindow > partitionAt {
		t.Errorf("forge window ends at %v, after the partition at %v", forgeAt+forgeWindow, partitionAt)
	}
	if captureAt+captureFor > partitionAt {
		t.Errorf("capture window ends at %v, after the partition at %v", captureAt+captureFor, partitionAt)
	}
	if lateReplayAt < healAt || lateReplayAt >= endAt {
		t.Errorf("late replay at %v, want in [%v, %v)", lateReplayAt, healAt, endAt)
	}
	if massMoveAt+massMoveWindow >= endAt-quiesceFor {
		t.Errorf("mass move ends at %v, not before quiesce at %v", massMoveAt+massMoveWindow, endAt-quiesceFor)
	}
}

// TestFleetBytesPerNode pins what fleet.New allocates per node for a
// 64-node, 4-cell fleet: hosts, interfaces, route tables, demux tables,
// mobile nodes, sockets and the shard rings, amortized over the nodes.
// A per-host map or an eager per-host structure would break the pin.
func TestFleetBytesPerNode(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	const nodes = 64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			New(Options{Seed: 1, Nodes: nodes, Cells: 4})
		}
	})
	if got := res.AllocedBytesPerOp() / nodes; got > fleetBytesPerNode {
		t.Errorf("fleet.New allocates %d B per node, want <= %d", got, fleetBytesPerNode)
	}
}

// fleetBytesPerNode bounds TestFleetBytesPerNode: 4,165 B per node on
// linux/amd64 (6,149 B with a Go map per demux table, a UDP demux
// closure, an eager reassembler and 256-slot shard rings), plus 5%
// headroom.
const fleetBytesPerNode = 4370

// TestFleetAllocsPerMove pins what a 64-node, 4-cell storm allocates per
// move, fleet.New excluded. The ARP-miss queue, ICMP, facade datagrams and
// the mode selector reuse their storage from move to move, so what is left
// is mostly first use and growth of long-lived state: ARP tables, binding
// tables, scheduler heaps.
func TestFleetAllocsPerMove(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	f := New(Options{Seed: 1, Nodes: 64, Cells: 4})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := f.Run()
	runtime.ReadMemStats(&after)
	if r.Moves == 0 {
		t.Fatal("storm moved nothing")
	}
	if got := float64(after.Mallocs-before.Mallocs) / float64(r.Moves); got > fleetAllocsPerMove {
		t.Errorf("fleet.Run allocates %.2f times per move, want <= %v", got, fleetAllocsPerMove)
	}
}

// fleetAllocsPerMove bounds TestFleetAllocsPerMove: 6.67-6.72 allocations
// per move over 408 moves on linux/amd64 (24.4 with a fresh ARP job,
// timer and packet copy per miss, a fresh ICMP and datagram slice per
// message, and a new selector map per attach).
const fleetAllocsPerMove = 7.0

// BenchmarkFleetBuild is fleet.New alone at BenchmarkFleetHandoffStorm's
// size: the build half of the storm, reported apart from the run.
func BenchmarkFleetBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(Options{Seed: 1, Nodes: 64, Cells: 8})
	}
}

func BenchmarkFleetHandoffStorm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := New(Options{Seed: 1, Nodes: 64, Cells: 8}).Run()
		if len(r.Violations) != 0 {
			b.Fatalf("violations: %v", r.Violations)
		}
	}
}

// BenchmarkShardedFleetStorm is the multi-worker counterpart: same storm,
// workers bounded by available cores. On a multi-core box the wall-clock
// ratio against BenchmarkFleetHandoffStorm is the sharding speedup; the
// results are byte-identical either way.
func BenchmarkShardedFleetStorm(b *testing.B) {
	workers := runtime.NumCPU()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := New(Options{Seed: 1, Nodes: 64, Cells: 8, Workers: workers}).Run()
		if len(r.Violations) != 0 {
			b.Fatalf("violations: %v", r.Violations)
		}
	}
}
