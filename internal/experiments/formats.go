package experiments

import (
	"fmt"
	"strings"

	"mob4x4/internal/assert"
	"mob4x4/internal/core"
	"mob4x4/internal/encap"
	"mob4x4/internal/ipv4"
)

// FormatRow is one mode's wire format in the paper's s/d/S/D notation
// (Figures 6-9): lower case is the outer (encapsulating) header, upper
// case the packet the endpoints see.
type FormatRow struct {
	Direction string // "out" or "in"
	Mode      string
	// Encapsulated reports whether an outer header exists.
	Encapsulated bool
	// OuterSrc/OuterDst ("s"/"d") — zero when unencapsulated.
	OuterSrc, OuterDst string
	// InnerSrc/InnerDst ("S"/"D").
	InnerSrc, InnerDst string
}

// Address roles used in the format table, matching the paper's labels.
const (
	roleMH  = "MH (home address)"
	roleCOA = "COA (care-of address)"
	roleHA  = "HA (home agent)"
	roleCH  = "CH (correspondent)"
)

// RunFormats builds each of the eight packet formats with the real codec
// machinery and reports the observed address placement — reproducing the
// diagrams of Figures 6, 7, 8 and 9 as a table (experiments E6+E7).
func RunFormats() []FormatRow {
	home := ipv4.MustParseAddr("36.1.1.3")
	coa := ipv4.MustParseAddr("128.9.1.4")
	ha := ipv4.MustParseAddr("36.1.1.2")
	ch := ipv4.MustParseAddr("17.5.0.2")
	codec := encap.IPIP{}

	role := func(a ipv4.Addr) string {
		switch a {
		case home:
			return roleMH
		case coa:
			return roleCOA
		case ha:
			return roleHA
		case ch:
			return roleCH
		default:
			return a.String()
		}
	}
	payload := []byte("fmt")
	inner := func(src, dst ipv4.Addr) ipv4.Packet {
		return ipv4.Packet{
			Header:  ipv4.Header{Protocol: ipv4.ProtoUDP, Src: src, Dst: dst, TTL: 64},
			Payload: payload,
		}
	}
	plainRow := func(dir, mode string, p ipv4.Packet) FormatRow {
		return FormatRow{
			Direction: dir, Mode: mode,
			InnerSrc: role(p.Src), InnerDst: role(p.Dst),
		}
	}
	encapRow := func(dir, mode string, outer ipv4.Packet) FormatRow {
		in, err := codec.Decapsulate(outer)
		assert.NoError(err, "formats: decapsulate freshly encapsulated packet")
		return FormatRow{
			Direction: dir, Mode: mode, Encapsulated: true,
			OuterSrc: role(outer.Src), OuterDst: role(outer.Dst),
			InnerSrc: role(in.Src), InnerDst: role(in.Dst),
		}
	}

	var rows []FormatRow

	// Figure 7: outgoing encapsulated (Out-IE, Out-DE).
	oie, _ := codec.AppendEncap(inner(home, ch), coa, ha, ipv4.Zero, nil)
	rows = append(rows, encapRow("out", core.OutIE.String(), oie))
	ode, _ := codec.AppendEncap(inner(home, ch), coa, ch, ipv4.Zero, nil)
	rows = append(rows, encapRow("out", core.OutDE.String(), ode))
	// Figure 6: outgoing unencapsulated (Out-DH, Out-DT).
	rows = append(rows, plainRow("out", core.OutDH.String(), inner(home, ch)))
	rows = append(rows, plainRow("out", core.OutDT.String(), inner(coa, ch)))

	// Figure 9: incoming encapsulated (In-IE from the HA, In-DE from the CH).
	iie, _ := codec.AppendEncap(inner(ch, home), ha, coa, ipv4.Zero, nil)
	rows = append(rows, encapRow("in", core.InIE.String(), iie))
	ide, _ := codec.AppendEncap(inner(ch, home), ch, coa, ipv4.Zero, nil)
	rows = append(rows, encapRow("in", core.InDE.String(), ide))
	// Figure 8: incoming unencapsulated (In-DH same segment, In-DT).
	rows = append(rows, plainRow("in", core.InDH.String(), inner(ch, home)))
	rows = append(rows, plainRow("in", core.InDT.String(), inner(ch, coa)))

	return rows
}

// FormatsTable renders the eight formats.
func FormatsTable(rows []FormatRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figures 6-9 — packet formats (s/d = outer header, S/D = inner)\n")
	fmt.Fprintf(&b, "  %-4s %-7s %-24s %-24s %-24s %-24s\n", "dir", "mode", "s (outer src)", "d (outer dst)", "S (src)", "D (dst)")
	for _, r := range rows {
		os, od := "-", "-"
		if r.Encapsulated {
			os, od = r.OuterSrc, r.OuterDst
		}
		fmt.Fprintf(&b, "  %-4s %-7s %-24s %-24s %-24s %-24s\n", r.Direction, r.Mode, os, od, r.InnerSrc, r.InnerDst)
	}
	return b.String()
}
