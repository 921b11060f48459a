package experiments

import (
	"math/rand"
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/metrics"
	"mob4x4/internal/vtime"
)

// The grid property suite: for every one of the 16 (Out, In) pairs, over
// randomized topologies and seeds, one two-way exchange must behave
// exactly as Section 6's taxonomy predicts, and the metrics registry
// must agree packet-for-packet with the traffic the cell generated. This
// is the paper's Figure 10 as an executable invariant rather than a
// single measured table.

// propTopos returns the default topology plus n pseudo-random variants.
// The generator is fixed-seeded: the suite is property-style in coverage
// but fully deterministic run to run.
func propTopos(n int) []gridTopo {
	rng := rand.New(rand.NewSource(0x4d4d))
	topos := []gridTopo{{}}
	for i := 0; i < n; i++ {
		topos = append(topos, gridTopo{
			HADistance:      rng.Intn(5),
			LANLatency:      vtime.Duration(1+rng.Intn(4)) * Millisecond,
			BackboneLatency: vtime.Duration(2+rng.Intn(9)) * Millisecond,
		})
	}
	return topos
}

// checkGridCell asserts every per-cell invariant of the taxonomy.
func checkGridCell(t *testing.T, c GridCell) {
	t.Helper()
	combo := c.Combo

	// Delivery: every mode combination moves packets in both directions
	// on a healthy topology — brokenness in the paper's sense is never
	// loss, it is endpoint inconsistency (§6).
	if !c.DeliveredIn {
		t.Errorf("%v: request not delivered", combo)
	}
	if !c.DeliveredOut {
		t.Errorf("%v: reply not delivered", combo)
	}

	// The six broken cells are exactly the address-mismatched ones; the
	// seven useful and three valid-but-unlikely cells all carry TCP.
	wantConsistent := combo.In.UsesHomeAddress() == combo.Out.UsesHomeAddress()
	if c.Consistent != wantConsistent {
		t.Errorf("%v: consistent = %v, want %v", combo, c.Consistent, wantConsistent)
	}
	if works, want := c.WorksForTCP(), c.Class != core.Broken; works != want {
		t.Errorf("%v (class %v): WorksForTCP = %v, want %v", combo, c.Class, works, want)
	}

	// Mode accounting: the MN saw exactly one packet in under the
	// forced In mode, sent exactly one out under the forced Out mode,
	// and nothing under any other mode.
	for m := 0; m < core.NumOutModes; m++ {
		wantIn := uint64(0)
		if m == int(combo.In) {
			wantIn = 1
		}
		if c.MNInPackets[m] != wantIn {
			t.Errorf("%v: MNInPackets[%s] = %d, want %d", combo, core.InMode(m), c.MNInPackets[m], wantIn)
		}
		wantOut := uint64(0)
		if m == int(combo.Out) {
			wantOut = 1
		}
		if c.MNOutPackets[m] != wantOut {
			t.Errorf("%v: MNOutPackets[%s] = %d, want %d", combo, core.OutMode(m), c.MNOutPackets[m], wantOut)
		}
	}
	// The echo mirrors the payload, so the inner reply is byte-for-byte
	// the size of the inner request.
	if in, out := c.MNInBytes[combo.In], c.MNOutBytes[combo.Out]; in == 0 || in != out {
		t.Errorf("%v: MNInBytes = %d, MNOutBytes = %d, want equal and nonzero", combo, in, out)
	}

	// Tunnel work: encapsulated modes cost exactly one encap and one
	// decap per direction, transparent modes cost none.
	wantReq, wantRep := uint64(0), uint64(0)
	if combo.In.Encapsulated() {
		wantReq = 1
	}
	if combo.Out.Encapsulated() {
		wantRep = 1
	}
	if c.ReqEncaps != wantReq || c.ReqDecaps != wantReq {
		t.Errorf("%v: request encaps/decaps = %d/%d, want %d/%d", combo, c.ReqEncaps, c.ReqDecaps, wantReq, wantReq)
	}
	if c.RepEncaps != wantRep || c.RepDecaps != wantRep {
		t.Errorf("%v: reply encaps/decaps = %d/%d, want %d/%d", combo, c.RepEncaps, c.RepDecaps, wantRep, wantRep)
	}

	// Nothing on the healthy grid topology is ever dropped.
	for cause, n := range c.Drops {
		if n != 0 {
			t.Errorf("%v: drop/%s = %d, want 0", combo, metrics.DropCause(cause), n)
		}
	}

	// A completed exchange took time; a same-segment one took no router
	// hops at all.
	if c.RTT <= 0 {
		t.Errorf("%v: RTT = %v, want > 0", combo, c.RTT)
	}
	if combo.In == core.InDH && combo.Out == core.OutDH && (c.InHops != 0 || c.OutHops != 0) {
		t.Errorf("%v: same-segment hops = %d/%d, want 0/0", combo, c.InHops, c.OutHops)
	}
}

func TestGridTaxonomyProperty(t *testing.T) {
	topoVariants, seeds := 2, []int64{1, 0x5eed}
	if testing.Short() {
		topoVariants, seeds = 0, []int64{1}
	}
	for ti, topo := range propTopos(topoVariants) {
		for _, seed := range seeds {
			topo, seed := topo, seed
			name := "default"
			if ti > 0 {
				name = "variant"
			}
			t.Run(name, func(t *testing.T) {
				combos := allGridCombos()
				cells := make([]GridCell, len(combos))
				parallelEach(4, len(combos), func(i int) {
					cells[i] = runGridCellTopo(seed, combos[i], topo)
				})
				if len(cells) != 16 {
					t.Fatalf("got %d cells, want 16", len(cells))
				}
				broken := 0
				for _, c := range cells {
					checkGridCell(t, c)
					if c.Class == core.Broken {
						broken++
					}
				}
				if broken != 6 {
					t.Errorf("broken cells = %d, want 6 (topo %+v seed %d)", broken, topo, seed)
				}
				// Longer indirect paths still deliver, and the triangle
				// shows: In-IE travels at least as far as In-DE from the
				// same correspondent.
				byCombo := map[core.Combo]GridCell{}
				for _, c := range cells {
					byCombo[c.Combo] = c
				}
				ie := byCombo[core.Combo{In: core.InIE, Out: core.OutDH}]
				de := byCombo[core.Combo{In: core.InDE, Out: core.OutDH}]
				if ie.InHops <= de.InHops {
					t.Errorf("In-IE hops (%d) not greater than In-DE hops (%d) (topo %+v)", ie.InHops, de.InHops, topo)
				}
			})
		}
	}
}
