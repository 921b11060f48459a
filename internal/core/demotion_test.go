package core

import (
	"testing"

	"mob4x4/internal/ipv4"
)

// The temporary-path (Out-DT via port heuristic) demotion ladder: a
// blackholed DT path must fall back to the cached mode, stay demoted
// for subsequent decisions, and recover only through an explicit retry
// probe.

func TestDTDemotionFallsBackToCachedMode(t *testing.T) {
	s := NewSelector(StartOptimistic) // caches Out-DH
	if got := s.ModeFor(chAddr); got != OutDH {
		t.Fatalf("cached mode = %s", got)
	}
	// The port heuristic elects the temporary path for this conversation.
	s.NoteTemporary(chAddr)
	// The DT packets vanish (an ingress filter appeared): two
	// retransmissions hit the threshold.
	s.ReportRetransmission(chAddr)
	switched, mode := s.ReportRetransmission(chAddr)
	if !switched || mode != OutDH {
		t.Fatalf("demotion = %v,%s, want true,Out-DH (back to cached mode)", switched, mode)
	}
	if s.DTDemotions != 1 {
		t.Errorf("DTDemotions = %d, want 1", s.DTDemotions)
	}
	// The cached mode itself is untouched: DT failed, not DH.
	if got := s.ModeFor(chAddr); got != OutDH {
		t.Errorf("cached mode after demotion = %s, want Out-DH", got)
	}
	// And DT is now marked unusable for this destination.
	if s.TemporaryUsable(chAddr) {
		t.Error("TemporaryUsable still true after a blackholed DT path")
	}
}

func TestDTSuccessDoesNotPromoteCachedMode(t *testing.T) {
	s := NewSelector(StartPessimistic) // caches Out-IE
	if got := s.ModeFor(chAddr); got != OutIE {
		t.Fatalf("cached mode = %s", got)
	}
	s.NoteTemporary(chAddr)
	s.ReportSuccess(chAddr)
	// DT worked, but that says nothing about the home-address modes: the
	// cached mode must still be Out-IE, not "upgraded" by DT's success.
	if got := s.ModeFor(chAddr); got != OutIE {
		t.Errorf("cached mode after DT success = %s, want Out-IE", got)
	}
	if !s.TemporaryUsable(chAddr) {
		t.Error("successful DT path marked unusable")
	}
}

func TestRetryTemporaryRestoresDT(t *testing.T) {
	s := NewSelector(StartOptimistic)
	s.ModeFor(chAddr)
	s.NoteTemporary(chAddr)
	s.ReportRetransmission(chAddr)
	s.ReportRetransmission(chAddr) // demoted
	if s.TemporaryUsable(chAddr) {
		t.Fatal("DT should be unusable after demotion")
	}
	if !s.RetryTemporary(chAddr) {
		t.Fatal("RetryTemporary reported nothing to clear")
	}
	if !s.TemporaryUsable(chAddr) {
		t.Error("DT still unusable after RetryTemporary")
	}
	// A second retry has nothing left to clear.
	if s.RetryTemporary(chAddr) {
		t.Error("RetryTemporary cleared twice")
	}
}

func TestTemporaryUsableUnknownDestination(t *testing.T) {
	s := NewSelector(StartOptimistic)
	if !s.TemporaryUsable(ipv4.MustParseAddr("99.9.9.9")) {
		t.Error("unknown destination should default to DT-usable")
	}
}

func TestDecideSkipsDTWhenDemoted(t *testing.T) {
	s := NewSelector(StartOptimistic)

	// Fresh destination + DNS port: the heuristic elects Out-DT.
	d := Decide(s, PreferAuto, chAddr, 53)
	if d.Mode != OutDT {
		t.Fatalf("initial decision = %s, want Out-DT", d.Mode)
	}
	// Blackhole the DT path past the threshold.
	s.ReportRetransmission(chAddr)
	s.ReportRetransmission(chAddr)
	// Same flow decided again: DT is demoted, the heuristic must not
	// re-elect it.
	d = Decide(s, PreferAuto, chAddr, 53)
	if d.Mode == OutDT {
		t.Fatal("Decide re-elected a demoted DT path")
	}
	// After a retry probe clears the demotion, DT is available again.
	s.RetryTemporary(chAddr)
	d = Decide(s, PreferAuto, chAddr, 53)
	if d.Mode != OutDT {
		t.Errorf("post-recovery decision = %s, want Out-DT", d.Mode)
	}
}

func TestDemotionLadderContinuesPastDT(t *testing.T) {
	// After DT demotes to the cached Out-DH, further retransmissions walk
	// the normal ladder: DH -> DE -> IE.
	s := NewSelector(StartOptimistic)
	s.ModeFor(chAddr)
	s.NoteTemporary(chAddr)
	s.ReportRetransmission(chAddr)
	if _, mode := s.ReportRetransmission(chAddr); mode != OutDH {
		t.Fatalf("first demotion -> %s, want Out-DH", mode)
	}
	s.ReportRetransmission(chAddr)
	if _, mode := s.ReportRetransmission(chAddr); mode != OutDE {
		t.Fatalf("second demotion -> %s, want Out-DE", mode)
	}
	s.ReportRetransmission(chAddr)
	if _, mode := s.ReportRetransmission(chAddr); mode != OutIE {
		t.Fatalf("third demotion -> %s, want Out-IE", mode)
	}
	if s.DTDemotions != 1 {
		t.Errorf("DTDemotions = %d, want 1 (later moves are plain fallbacks)", s.DTDemotions)
	}
}
