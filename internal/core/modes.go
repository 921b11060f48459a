// Package core implements the paper's primary contribution: the 4x4 grid
// of Internet mobility routing choices (Figure 10) and the decision
// machinery a mobile host uses to pick the best available mode for each
// correspondent — the delivery-method cache, the optimistic/pessimistic
// probing strategies and the address/mask rule table of Section 7.1, the
// port-number heuristics, and the correspondent host's four-way choice of
// Section 7.2.
//
// The package is pure policy: it depends only on the address types and
// never touches the simulated network. Package mobileip executes the
// modes this package selects.
package core

import "fmt"

// OutMode is one of the four ways a mobile host can send a packet to a
// correspondent host (Section 4).
type OutMode int

// The four outgoing modes, ordered from most conservative to least.
const (
	// OutIE — Outgoing, Indirect, Encapsulated: tunnel to the home agent,
	// which forwards to the correspondent ("conservative mode").
	OutIE OutMode = iota
	// OutDE — Outgoing, Direct, Encapsulated: tunnel straight to a
	// decapsulation-capable correspondent.
	OutDE
	// OutDH — Outgoing, Direct, Home address: a plain packet with the
	// permanent home address as source; requires no source-address
	// filtering on the path.
	OutDH
	// OutDT — Outgoing, Direct, Temporary address: a plain packet from
	// the care-of address; no Mobile IP at all.
	OutDT

	// NumOutModes is the number of outgoing modes.
	NumOutModes = 4
)

// InMode is one of the four ways a correspondent host's packets can reach
// the mobile host (Section 5).
type InMode int

// The four incoming modes, ordered from most conservative to least.
const (
	// InIE — Incoming, Indirect, Encapsulated: addressed to the home
	// address, captured by the home agent, tunneled to the care-of
	// address (what every conventional correspondent produces).
	InIE InMode = iota
	// InDE — Incoming, Direct, Encapsulated: a mobile-aware
	// correspondent encapsulates to the care-of address itself.
	InDE
	// InDH — Incoming, Direct, Home address: a plain packet to the home
	// address delivered in a single link-layer hop (same segment only).
	InDH
	// InDT — Incoming, Direct, Temporary address: a plain packet to the
	// care-of address; no Mobile IP at all.
	InDT

	// NumInModes is the number of incoming modes.
	NumInModes = 4
)

func (m OutMode) String() string {
	switch m {
	case OutIE:
		return "Out-IE"
	case OutDE:
		return "Out-DE"
	case OutDH:
		return "Out-DH"
	case OutDT:
		return "Out-DT"
	default:
		return fmt.Sprintf("OutMode(%d)", int(m))
	}
}

func (m InMode) String() string {
	switch m {
	case InIE:
		return "In-IE"
	case InDE:
		return "In-DE"
	case InDH:
		return "In-DH"
	case InDT:
		return "In-DT"
	default:
		return fmt.Sprintf("InMode(%d)", int(m))
	}
}

// Mode is either axis of the grid, for code that names the cells of a
// per-mode array the same way on both.
type Mode interface {
	OutMode | InMode
	String() string
}

// Valid reports whether m is one of the four defined outgoing modes.
func (m OutMode) Valid() bool { return m >= OutIE && m <= OutDT }

// Valid reports whether m is one of the four defined incoming modes.
func (m InMode) Valid() bool { return m >= InIE && m <= InDT }

// Direct reports whether packets avoid the home agent.
func (m OutMode) Direct() bool { return m != OutIE }

// Encapsulated reports whether the mode adds a tunnel header.
func (m OutMode) Encapsulated() bool { return m == OutIE || m == OutDE }

// UsesHomeAddress reports whether the correspondent sees the permanent
// home address as the communication endpoint.
func (m OutMode) UsesHomeAddress() bool { return m != OutDT }

// Direct reports whether packets avoid the home agent.
func (m InMode) Direct() bool { return m != InIE }

// Encapsulated reports whether packets arrive wearing a tunnel header.
func (m InMode) Encapsulated() bool { return m == InIE || m == InDE }

// UsesHomeAddress reports whether the correspondent addresses the
// permanent home address.
func (m InMode) UsesHomeAddress() bool { return m != InDT }

// OutModes lists all outgoing modes in conservative-to-aggressive order.
func OutModes() []OutMode { return []OutMode{OutIE, OutDE, OutDH, OutDT} }

// InModes lists all incoming modes in conservative-to-aggressive order.
func InModes() []InMode { return []InMode{InIE, InDE, InDH, InDT} }

// Combo is one cell of the 4x4 grid: a way to run a two-way conversation.
type Combo struct {
	In  InMode
	Out OutMode
}

func (c Combo) String() string { return c.In.String() + "/" + c.Out.String() }

// AllCombos enumerates the 16 grid cells row by row (Figure 10 order).
func AllCombos() []Combo {
	cs := make([]Combo, 0, 16)
	for _, in := range InModes() {
		for _, out := range OutModes() {
			cs = append(cs, Combo{in, out})
		}
	}
	return cs
}
