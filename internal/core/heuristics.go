package core

import "mob4x4/internal/ipv4"

// AddressPreference is what a mobile-aware application signalled through
// its socket binding (Section 7.1.1): binding to a physical interface
// address requests plain Out-DT through that interface; binding to the
// home address (or nothing) leaves the decision to the mobility software.
type AddressPreference int

// Socket-binding preferences.
const (
	// PreferAuto: socket unbound or bound to the home address — "that is
	// taken as an indication that the application is not mobile-aware,
	// and our Mobile IP software should use its heuristics".
	PreferAuto AddressPreference = iota
	// PreferTemporary: socket bound to a physical (care-of) interface
	// address — send Out-DT, "honoring the application's desired source
	// address".
	PreferTemporary
	// PreferHome: socket explicitly pinned to the home address by a
	// mobile-aware application that wants durable transparent mobility
	// even for traffic the heuristics would shortcut.
	PreferHome
)

func (p AddressPreference) String() string {
	switch p {
	case PreferTemporary:
		return "temporary"
	case PreferHome:
		return "home"
	default:
		return "auto"
	}
}

// TemporaryOK is the port heuristic of Section 7.1.1: it reports whether
// traffic to dstPort is short-lived enough to forgo Mobile IP and use the
// temporary address. "Connections to port 80 are likely to be HTTP
// requests and can safely use Out-DT. Similarly, UDP packets addressed to
// UDP port 53 are likely to be DNS requests".
func TemporaryOK(dstPort uint16) bool {
	switch dstPort {
	case 80: // HTTP: "the user has the option of clicking ... 'reload'"
		return true
	case 53: // DNS: "connectionless datagram transactions"
		return true
	}
	return false
}

// Decision is the full outcome of the mobile host's two-step choice
// (Section 7.1): first home vs temporary address, then — if home — which
// of the three home-address methods.
type Decision struct {
	Mode OutMode
	// Reason explains the decision for traces and tests.
	Reason string
}

// Decide runs the paper's decision procedure for one packet or connection
// setup:
//
//  1. An explicit application preference wins (socket binding, §7.1.1).
//  2. Otherwise the port heuristic may choose the temporary address.
//  3. Otherwise the home address is used and the Selector's per-
//     correspondent cache picks among Out-IE/Out-DE/Out-DH (§7.1.2).
func Decide(sel *Selector, pref AddressPreference, dst ipv4.Addr, dstPort uint16) Decision {
	switch pref {
	case PreferTemporary:
		return Decision{Mode: OutDT, Reason: "socket bound to care-of address"}
	case PreferHome:
		return Decision{Mode: sel.ModeFor(dst), Reason: "socket pinned to home address; method cache"}
	}
	if TemporaryOK(dstPort) && sel.TemporaryUsable(dst) {
		sel.NoteTemporary(dst)
		return Decision{Mode: OutDT, Reason: "port heuristic: short-lived service"}
	}
	return Decision{Mode: sel.ModeFor(dst), Reason: "method cache"}
}
