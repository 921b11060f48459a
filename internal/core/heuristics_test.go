package core

import (
	"testing"

	"mob4x4/internal/ipv4"
)

func TestDefaultPortHeuristic(t *testing.T) {
	if !TemporaryOK(80) {
		t.Error("HTTP should be Out-DT-safe (the paper's example)")
	}
	if !TemporaryOK(53) {
		t.Error("DNS should be Out-DT-safe (the paper's example)")
	}
	for _, p := range []uint16{0, 23, 443, 8080} {
		if TemporaryOK(p) {
			t.Errorf("port %d must keep Mobile IP", p)
		}
	}
}

func TestDecidePreferences(t *testing.T) {
	sel := NewSelector(StartPessimistic)
	dst := ipv4.MustParseAddr("17.5.0.2")

	// §7.1.1: socket bound to the care-of address — Out-DT, always.
	d := Decide(sel, PreferTemporary, dst, 23)
	if d.Mode != OutDT {
		t.Errorf("PreferTemporary: %s", d.Mode)
	}
	// Socket pinned to the home address: heuristics are bypassed even
	// for port 80.
	d = Decide(sel, PreferHome, dst, 80)
	if d.Mode == OutDT {
		t.Errorf("PreferHome overridden by heuristic: %s", d.Mode)
	}
	// Unbound socket + HTTP: the port heuristic chooses Out-DT.
	d = Decide(sel, PreferAuto, dst, 80)
	if d.Mode != OutDT {
		t.Errorf("port-80 heuristic: %s", d.Mode)
	}
	// Unbound + long-lived port: the method cache answers.
	d = Decide(sel, PreferAuto, dst, 23)
	if d.Mode != OutIE { // pessimistic selector
		t.Errorf("auto long-lived: %s", d.Mode)
	}
	if d.Reason == "" {
		t.Error("decision lacks a reason")
	}
}

func TestAddressPreferenceString(t *testing.T) {
	for _, p := range []AddressPreference{PreferAuto, PreferTemporary, PreferHome} {
		if p.String() == "" {
			t.Error("preference string empty")
		}
	}
}

func TestCorrespondentPolicyUnaware(t *testing.T) {
	p := NewCorrespondentPolicy(false)
	home := ipv4.MustParseAddr("36.1.1.3")
	p.LearnBinding(Binding{Home: home, CareOf: ipv4.MustParseAddr("128.9.1.4")}) // ignored
	if got := p.ModeFor(home, false); got != InIE {
		t.Errorf("unaware CH mode = %s", got)
	}
	if _, ok := p.Binding(home); ok {
		t.Error("unaware CH learned a binding")
	}
	// But replies to a temporary-address initiation are In-DT even for
	// an unaware host — it just answers the source address.
	if got := p.ModeFor(ipv4.MustParseAddr("128.9.1.4"), true); got != InDT {
		t.Errorf("temp-initiated reply = %s", got)
	}
}

func TestCorrespondentPolicyAware(t *testing.T) {
	p := NewCorrespondentPolicy(true)
	home := ipv4.MustParseAddr("36.1.1.3")
	coa := ipv4.MustParseAddr("128.9.1.4")

	if got := p.ModeFor(home, false); got != InIE {
		t.Errorf("no binding yet: %s", got)
	}
	p.LearnBinding(Binding{Home: home, CareOf: coa})
	if got := p.ModeFor(home, false); got != InDE {
		t.Errorf("with binding: %s", got)
	}
	p.NoteOnLink(home, true)
	if got := p.ModeFor(home, false); got != InDH {
		t.Errorf("on-link: %s", got)
	}
	p.NoteOnLink(home, false)
	if got := p.ModeFor(home, false); got != InDE {
		t.Errorf("off-link again: %s", got)
	}
	p.ForgetBinding(home)
	if got := p.ModeFor(home, false); got != InIE {
		t.Errorf("after forget: %s", got)
	}
}
