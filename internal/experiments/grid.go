package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"mob4x4/internal/assert"
	"mob4x4/internal/core"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/stack"
	"mob4x4/internal/vtime"
)

// GridCell is one measured cell of the Figure 10 matrix.
type GridCell struct {
	Combo core.Combo
	// Class is the paper's classification (core.Classify).
	Class core.Class

	// Measured behavior of one request/reply exchange run with the
	// combination forced:
	DeliveredIn  bool // CH's request reached the MH
	DeliveredOut bool // MH's reply reached the CH
	// Consistent reports endpoint consistency: the reply's source
	// address is the address the CH originally targeted. TCP (and every
	// two-way protocol keyed on addresses) requires this; the darkly
	// shaded cells of Figure 10 are exactly the ones that fail it.
	Consistent bool

	// Hop counts come from the metrics registry, not the tracer: the
	// request's hops are the IPForwarded delta between the probe's send
	// and its delivery at the MH, the reply's the delta between the echo
	// and its delivery at the CH. One packet is in flight at a time, so
	// the deltas attribute exactly.
	InHops  int // router forwardings, CH -> MH (all wrappings included)
	OutHops int // router forwardings, MH -> CH

	// RTT is the request->reply round trip in virtual time (zero when
	// the reply never arrived).
	RTT vtime.Duration

	// Tunnel work per direction, from the same registry deltas:
	// encapsulations, decapsulations, and tunnel-protocol router
	// forwards for the request (Req*) and the reply (Rep*).
	ReqEncaps, ReqDecaps, ReqTunnelHops uint64
	RepEncaps, RepDecaps, RepTunnelHops uint64

	// Mobile-node mode accounting over the whole exchange window: how
	// many packets (and bytes) the MN sent and received in each of the
	// four modes, indexed by core.OutMode/core.InMode.
	MNOutPackets, MNOutBytes [core.NumOutModes]uint64
	MNInPackets, MNInBytes   [core.NumInModes]uint64

	// Bytes-on-wire per mode over the same window: tunnel headers
	// included, so MNOutWireBytes-MNOutBytes is the measured (not
	// analytic) encapsulation overhead the route-opt tier shrinks.
	MNOutWireBytes [core.NumOutModes]uint64
	MNInWireBytes  [core.NumInModes]uint64

	// Drops per cause over the exchange window (all-zero on the healthy
	// grid topology).
	Drops [metrics.NumDropCauses]uint64

	// InOverheadBytes/OutOverheadBytes are the encapsulation bytes the
	// mode adds to every packet in that direction (analytic, from the
	// codec; Section 3.3).
	InOverheadBytes  int
	OutOverheadBytes int

	// Requirements renders the cell's caption from Figure 10.
	Requirements string
}

// WorksForTCP is the measured analogue of "would work correctly with
// current protocols such as TCP": both directions delivered and the
// endpoints consistent.
func (c GridCell) WorksForTCP() bool {
	return c.DeliveredIn && c.DeliveredOut && c.Consistent
}

const gridEchoPort = 7777

// RunGrid executes experiment E8: every cell of the 4x4 grid is forced in
// a fresh scenario and measured with a one-shot UDP echo whose reply
// source is pinned to the column's address, mirroring how a transport
// keyed to that address would behave.
func RunGrid(seed int64) []GridCell {
	var cells []GridCell
	for _, combo := range allGridCombos() {
		cells = append(cells, runGridCell(seed, combo))
	}
	return cells
}

// allGridCombos is the cell enumeration shared by the serial and parallel
// grid runners (one fixed order keeps their outputs comparable).
func allGridCombos() []core.Combo { return core.AllCombos() }

// gridTopo varies the scenario topology for the grid property tests. The
// zero value is the standard Figure 10 topology; the taxonomy must hold
// on every variant.
type gridTopo struct {
	HADistance      int
	LANLatency      vtime.Duration
	BackboneLatency vtime.Duration
}

func runGridCell(seed int64, combo core.Combo) GridCell {
	return runGridCellTopo(seed, combo, gridTopo{})
}

// gridMark is one reading of the registry counters the grid attributes
// per direction.
type gridMark struct {
	fwd, enc, dec, tun uint64
}

func runGridCellTopo(seed int64, combo core.Combo, topo gridTopo) GridCell {
	cell := GridCell{Combo: combo, Class: core.Classify(combo)}
	var reqs []string
	for _, r := range combo.Requirements() {
		reqs = append(reqs, r.String())
	}
	cell.Requirements = strings.Join(reqs, "; ")

	// Force the MH's outgoing mode for home-sourced traffic.
	sel := core.NewSelector(core.StartPessimistic)
	outMode := combo.Out
	if outMode != core.OutDT {
		m := outMode
		sel.AddRule(core.Rule{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), ForceMode: &m})
	}
	aware := combo.In == core.InDE || combo.In == core.InDH
	s := Build(Options{
		Seed:            seed,
		Selector:        sel,
		CHAware:         aware,
		CHDecap:         true, // Out-DE must be answerable in every row
		HADistance:      topo.HADistance,
		LANLatency:      topo.LANLatency,
		BackboneLatency: topo.BackboneLatency,
		MetricsLabel:    fmt.Sprintf("grid/%s/%s", combo.Out, combo.In),
	})
	careOf := s.Roam()

	// Pick the correspondent: same-segment for Row C, distant otherwise.
	ch := s.CHFar
	chC := s.CHFarC
	if combo.In == core.InDH {
		ch = s.CHNear
		chC = s.CHNearC
	}
	if aware {
		chC.LearnBinding(core.Binding{Home: s.MN.Home(), CareOf: careOf}, 0)
	}

	// The address the CH targets (the MH endpoint as the CH knows it).
	target := s.MN.Home()
	if combo.In == core.InDT {
		target = careOf
	}
	// The source the MH's reply is keyed to (the column's address).
	replySrc := s.MN.Home()
	if combo.Out == core.OutDT {
		replySrc = careOf
	}

	reg := s.Net.Sim.Metrics
	mark := func() gridMark {
		return gridMark{
			fwd: reg.IPForwarded.Value(),
			enc: reg.Encaps.Value(),
			dec: reg.Decaps.Value(),
			tun: reg.TunnelForwards.Value(),
		}
	}

	// MH echo service with the reply source pinned. The mark is taken
	// before the echo goes out so the reply's synchronous encapsulation
	// lands on the reply's side of the split.
	deliveredIn := false
	var atMH gridMark
	var mhSock *stack.UDPSocket
	mhSock, err := s.MHHost.OpenUDP(ipv4.Zero, gridEchoPort, func(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
		deliveredIn = true
		atMH = mark()
		_ = mhSock.SendToFrom(replySrc, src, srcPort, payload)
	})
	assert.NoError(err, "grid: open MH socket")

	deliveredOut := false
	var atCH gridMark
	var replyFrom ipv4.Addr
	sendAt := s.Net.Sim.Now()
	chSock, err := ch.OpenUDP(ipv4.Zero, 0, func(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
		deliveredOut = true
		atCH = mark()
		cell.RTT = s.Net.Sim.Now().Sub(sendAt)
		replyFrom = src
	})
	assert.NoError(err, "grid: open CH socket")

	// Baselines before the probe: the CH's own encapsulation (In-DE)
	// happens synchronously inside SendTo.
	base := mark()
	mn0 := s.MN.Stats
	var drops0 [metrics.NumDropCauses]uint64
	for c := range drops0 {
		drops0[c] = reg.DropCount(metrics.DropCause(c))
	}
	sendAt = s.Net.Sim.Now()
	_ = chSock.SendTo(target, gridEchoPort, []byte("grid-probe"))
	s.Net.RunFor(10 * Second)

	cell.DeliveredIn = deliveredIn
	cell.DeliveredOut = deliveredOut
	cell.Consistent = deliveredOut && replyFrom == target

	if deliveredIn {
		cell.InHops = int(atMH.fwd - base.fwd)
		cell.ReqEncaps = atMH.enc - base.enc
		cell.ReqDecaps = atMH.dec - base.dec
		cell.ReqTunnelHops = atMH.tun - base.tun
		if deliveredOut {
			cell.OutHops = int(atCH.fwd - atMH.fwd)
			cell.RepEncaps = atCH.enc - atMH.enc
			cell.RepDecaps = atCH.dec - atMH.dec
			cell.RepTunnelHops = atCH.tun - atMH.tun
		}
	}
	mn1 := s.MN.Stats
	for m := range cell.MNOutPackets {
		cell.MNOutPackets[m] = mn1.OutByMode[m] - mn0.OutByMode[m]
		cell.MNOutBytes[m] = mn1.OutBytes[m] - mn0.OutBytes[m]
		cell.MNInPackets[m] = mn1.InByMode[m] - mn0.InByMode[m]
		cell.MNInBytes[m] = mn1.InBytes[m] - mn0.InBytes[m]
		cell.MNOutWireBytes[m] = mn1.OutWireBytes[m] - mn0.OutWireBytes[m]
		cell.MNInWireBytes[m] = mn1.InWireBytes[m] - mn0.InWireBytes[m]
	}
	for c := range cell.Drops {
		cell.Drops[c] = reg.DropCount(metrics.DropCause(c)) - drops0[c]
	}

	// Analytic per-packet overhead (Section 3.3): the tunnel header.
	overhead := 20 // IPIP default
	if s.Opts.Codec != nil {
		overhead = s.Opts.Codec.Overhead()
	}
	if combo.In.Encapsulated() {
		cell.InOverheadBytes = overhead
	}
	if combo.Out.Encapsulated() {
		cell.OutOverheadBytes = overhead
	}
	return cell
}

// GridTable renders the measured matrix in Figure 10's layout.
func GridTable(cells []GridCell) string {
	byCombo := make(map[core.Combo]GridCell, len(cells))
	for _, c := range cells {
		byCombo[c.Combo] = c
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 — Internet Mobility 4x4 (measured)\n")
	fmt.Fprintf(&b, "%-8s", "")
	for _, out := range core.OutModes() {
		fmt.Fprintf(&b, " %-22s", out)
	}
	fmt.Fprintln(&b)
	for _, in := range core.InModes() {
		fmt.Fprintf(&b, "%-8s", in)
		for _, out := range core.OutModes() {
			c := byCombo[core.Combo{In: in, Out: out}]
			status := "BROKEN"
			if c.WorksForTCP() {
				status = fmt.Sprintf("ok %d/%dh +%d/%dB", c.InHops, c.OutHops, c.InOverheadBytes, c.OutOverheadBytes)
			}
			mark := map[core.Class]string{
				core.Useful: " ", core.ValidUnlikely: "~", core.Broken: "x",
			}[c.Class]
			fmt.Fprintf(&b, " %s%-21s", mark, status)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "legend: ' '=useful  '~'=valid-but-unlikely  'x'=broken (paper classification)\n")
	fmt.Fprintf(&b, "        cell shows in/out router hops and per-packet encapsulation bytes\n")
	return b.String()
}

// GridAgreement compares the measured matrix against the paper's
// classification and returns (matches, total, mismatches). A cell agrees
// when WorksForTCP() is true exactly for non-Broken cells.
func GridAgreement(cells []GridCell) (int, int, []GridCell) {
	matches := 0
	var mismatches []GridCell
	for _, c := range cells {
		expectWorks := c.Class != core.Broken
		if c.WorksForTCP() == expectWorks {
			matches++
		} else {
			mismatches = append(mismatches, c)
		}
	}
	return matches, len(cells), mismatches
}

// gridOutput renders the measured cells for the grid entry: the table
// with the agreement line, or under -metrics the JSON report
// (deterministic, byte-identical for any seed and worker count). A cell
// the paper classifies differently is a broken invariant: it becomes a
// Violation, and the table lists it after the agreement line.
func gridOutput(c Config, grid []GridCell) Output {
	m, t, mismatches := GridAgreement(grid)
	var out Output
	if c.Metrics {
		out = text(gridReport(grid).JSON())
	} else {
		out = text(GridTable(grid) + fmt.Sprintf("agreement with paper classification: %d/%d\n", m, t))
	}
	for _, mc := range mismatches {
		what := fmt.Sprintf("%s: class=%v in=%v out=%v consistent=%v",
			mc.Combo, mc.Class, mc.DeliveredIn, mc.DeliveredOut, mc.Consistent)
		if !c.Metrics {
			out.Text += "  MISMATCH " + what + "\n"
		}
		out.Violations = append(out.Violations, Violation{Seed: c.Seed, What: what})
	}
	return out
}

// GridCellMetrics is the machine-readable form of one cell, with mode
// and drop counters keyed by name. Zero-valued map entries are elided so
// the JSON states exactly what happened and nothing else.
type GridCellMetrics struct {
	Out           string            `json:"out"`
	In            string            `json:"in"`
	Class         string            `json:"class"`
	DeliveredIn   bool              `json:"delivered_in"`
	DeliveredOut  bool              `json:"delivered_out"`
	Consistent    bool              `json:"consistent"`
	WorksForTCP   bool              `json:"works_for_tcp"`
	InHops        int               `json:"in_hops"`
	OutHops       int               `json:"out_hops"`
	InOverhead    int               `json:"in_overhead_bytes"`
	OutOverhead   int               `json:"out_overhead_bytes"`
	RTTNs         int64             `json:"rtt_ns"`
	ReqEncaps     uint64            `json:"req_encaps"`
	ReqDecaps     uint64            `json:"req_decaps"`
	ReqTunnelHops uint64            `json:"req_tunnel_hops"`
	RepEncaps     uint64            `json:"rep_encaps"`
	RepDecaps     uint64            `json:"rep_decaps"`
	RepTunnelHops uint64            `json:"rep_tunnel_hops"`
	MNOutPackets  map[string]uint64 `json:"mn_out_pkts,omitempty"`
	MNOutBytes    map[string]uint64 `json:"mn_out_bytes,omitempty"`
	MNInPackets   map[string]uint64 `json:"mn_in_pkts,omitempty"`
	MNInBytes     map[string]uint64 `json:"mn_in_bytes,omitempty"`

	// Measured wire cost (tunnel headers included) per mode: the E17
	// bytes-on-wire column, also surfaced per grid cell so header
	// overhead is visible per (Out, In) pair.
	MNOutWireBytes map[string]uint64 `json:"mn_out_wire_bytes,omitempty"`
	MNInWireBytes  map[string]uint64 `json:"mn_in_wire_bytes,omitempty"`
	Drops          map[string]uint64 `json:"drops,omitempty"`
	Requirements   string            `json:"requirements,omitempty"`
}

// nonzeroByName converts a per-mode counter array into a map keyed by
// mode name, dropping zero entries (nil when all are zero, so omitempty
// fires).
func nonzeroByName[M core.Mode](v [core.NumOutModes]uint64) map[string]uint64 {
	var m map[string]uint64
	for i, n := range v {
		if n == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]uint64)
		}
		m[M(i).String()] = n
	}
	return m
}

// CellMetrics converts a measured cell to its report form.
func CellMetrics(c GridCell) GridCellMetrics {
	gm := GridCellMetrics{
		Out:           c.Combo.Out.String(),
		In:            c.Combo.In.String(),
		Class:         c.Class.String(),
		DeliveredIn:   c.DeliveredIn,
		DeliveredOut:  c.DeliveredOut,
		Consistent:    c.Consistent,
		WorksForTCP:   c.WorksForTCP(),
		InHops:        c.InHops,
		OutHops:       c.OutHops,
		InOverhead:    c.InOverheadBytes,
		OutOverhead:   c.OutOverheadBytes,
		RTTNs:         int64(c.RTT),
		ReqEncaps:     c.ReqEncaps,
		ReqDecaps:     c.ReqDecaps,
		ReqTunnelHops: c.ReqTunnelHops,
		RepEncaps:     c.RepEncaps,
		RepDecaps:     c.RepDecaps,
		RepTunnelHops: c.RepTunnelHops,
		MNOutPackets:  nonzeroByName[core.OutMode](c.MNOutPackets),
		MNOutBytes:    nonzeroByName[core.OutMode](c.MNOutBytes),
		MNInPackets:   nonzeroByName[core.InMode](c.MNInPackets),
		MNInBytes:     nonzeroByName[core.InMode](c.MNInBytes),

		MNOutWireBytes: nonzeroByName[core.OutMode](c.MNOutWireBytes),
		MNInWireBytes:  nonzeroByName[core.InMode](c.MNInWireBytes),
		Requirements:   c.Requirements,
	}
	for cause, n := range c.Drops {
		if n == 0 {
			continue
		}
		if gm.Drops == nil {
			gm.Drops = make(map[string]uint64)
		}
		gm.Drops[metrics.DropCause(cause).String()] = n
	}
	return gm
}

// GridReport is the machine-readable 4x4 grid: one entry per cell in the
// fixed AllCombos order. Its JSON is deterministic — same bytes for any
// worker count, because every cell is a pure function of (seed, combo)
// and encoding/json sorts map keys.
type GridReport struct {
	Cells []GridCellMetrics `json:"cells"`
}

// gridReport assembles the report from the measured cells.
func gridReport(cells []GridCell) GridReport {
	rep := GridReport{Cells: make([]GridCellMetrics, len(cells))}
	for i, c := range cells {
		rep.Cells[i] = CellMetrics(c)
	}
	return rep
}

// JSON renders the report with a trailing newline.
func (r GridReport) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		assert.Unreachable("grid report marshal: %v", err)
	}
	return string(b) + "\n"
}
