package core

import (
	"testing"
	"testing/quick"

	"mob4x4/internal/ipv4"
)

var (
	chAddr  = ipv4.MustParseAddr("17.5.0.2")
	chAddr2 = ipv4.MustParseAddr("18.0.0.9")
)

func TestInitialModeByPolicy(t *testing.T) {
	if got := NewSelector(StartPessimistic).ModeFor(chAddr); got != OutIE {
		t.Errorf("pessimistic start = %s", got)
	}
	if got := NewSelector(StartOptimistic).ModeFor(chAddr); got != OutDH {
		t.Errorf("optimistic start = %s", got)
	}
}

func TestMethodCacheStability(t *testing.T) {
	s := NewSelector(StartOptimistic)
	first := s.ModeFor(chAddr)
	for i := 0; i < 100; i++ {
		if got := s.ModeFor(chAddr); got != first {
			t.Fatalf("mode changed without feedback: %s", got)
		}
	}
	if s.CacheHits != 100 {
		t.Errorf("cache hits = %d", s.CacheHits)
	}
	if s.CacheLen() != 1 {
		t.Errorf("cache len = %d", s.CacheLen())
	}
}

func TestRetransmissionThresholdAndFallback(t *testing.T) {
	s := NewSelector(StartOptimistic) // starts Out-DH
	// One retransmission: below the threshold, no switch.
	if switched, _ := s.ReportRetransmission(chAddr); switched {
		t.Error("switched below threshold")
	}
	// Second consecutive retransmission: fall back to Out-DE.
	switched, mode := s.ReportRetransmission(chAddr)
	if !switched || mode != OutDE {
		t.Errorf("fallback = %v,%s, want true,Out-DE", switched, mode)
	}
	// Two more: fall back to Out-IE.
	s.ReportRetransmission(chAddr)
	_, mode = s.ReportRetransmission(chAddr)
	if mode != OutIE {
		t.Errorf("second fallback = %s, want Out-IE", mode)
	}
	if s.FallbackMoves != 2 {
		t.Errorf("FallbackMoves = %d", s.FallbackMoves)
	}
}

func TestFallbackSkipsDEWhenCHCannotDecapsulate(t *testing.T) {
	s := NewSelector(StartOptimistic)
	s.CHCanDecapsulate = func(ipv4.Addr) bool { return false }
	s.ReportRetransmission(chAddr)
	_, mode := s.ReportRetransmission(chAddr)
	if mode != OutIE {
		t.Errorf("fallback = %s, want Out-IE (DE skipped)", mode)
	}
}

func TestSuccessResetsRetransmissionCount(t *testing.T) {
	s := NewSelector(StartOptimistic)
	s.ReportRetransmission(chAddr)
	s.ReportSuccess(chAddr) // resets the consecutive count
	if switched, _ := s.ReportRetransmission(chAddr); switched {
		t.Error("switched after interleaved success")
	}
}

func TestTryUpgradeAndConfirm(t *testing.T) {
	s := NewSelector(StartPessimistic) // Out-IE
	ok, mode := s.TryUpgrade(chAddr)
	if !ok || mode != OutDE {
		t.Fatalf("upgrade = %v,%s", ok, mode)
	}
	// While probing, no further upgrade.
	if ok, _ := s.TryUpgrade(chAddr); ok {
		t.Error("double probe")
	}
	// Probe confirmed by success; next upgrade goes to Out-DH.
	s.ReportSuccess(chAddr)
	ok, mode = s.TryUpgrade(chAddr)
	if !ok || mode != OutDH {
		t.Errorf("second upgrade = %v,%s", ok, mode)
	}
	s.ReportSuccess(chAddr)
	// At the top: nothing left.
	if ok, _ := s.TryUpgrade(chAddr); ok {
		t.Error("upgrade beyond Out-DH")
	}
	if s.UpgradeMoves != 2 {
		t.Errorf("UpgradeMoves = %d", s.UpgradeMoves)
	}
}

func TestProbeFailureRollsBackToLastGood(t *testing.T) {
	s := NewSelector(StartPessimistic)
	s.ReportSuccess(chAddr) // Out-IE known good
	_, mode := s.TryUpgrade(chAddr)
	if mode != OutDE {
		t.Fatalf("probe mode = %s", mode)
	}
	// Probe fails: two retransmissions roll straight back to Out-IE,
	// not further down.
	s.ReportRetransmission(chAddr)
	switched, mode := s.ReportRetransmission(chAddr)
	if !switched || mode != OutIE {
		t.Errorf("rollback = %v,%s, want true,Out-IE", switched, mode)
	}
	// The failed mode is remembered: the next upgrade skips Out-DE.
	ok, mode := s.TryUpgrade(chAddr)
	if !ok || mode != OutDH {
		t.Errorf("post-failure upgrade = %v,%s, want true,Out-DH", ok, mode)
	}
}

func TestEverythingFailedResetsToOutIE(t *testing.T) {
	s := NewSelector(StartOptimistic)
	// Burn through DH, DE, IE.
	for i := 0; i < 6; i++ {
		s.ReportRetransmission(chAddr)
	}
	// Even Out-IE "failed" now; the selector must still answer Out-IE
	// (the only mode that can be relied upon) and clear history.
	for i := 0; i < 2; i++ {
		s.ReportRetransmission(chAddr)
	}
	if got := s.ModeFor(chAddr); got != OutIE {
		t.Errorf("after total failure: %s", got)
	}
}

func TestRulesForceAndPolicy(t *testing.T) {
	s := NewSelector(StartOptimistic)
	forced := OutIE
	s.AddRule(Rule{Prefix: ipv4.MustParsePrefix("36.1.1.0/24"), ForceMode: &forced})
	s.AddRule(Rule{Prefix: ipv4.MustParsePrefix("17.0.0.0/8"), Policy: StartPessimistic})

	if got := s.ModeFor(ipv4.MustParseAddr("36.1.1.50")); got != OutIE {
		t.Errorf("forced rule = %s", got)
	}
	if got := s.ModeFor(chAddr); got != OutIE { // pessimistic rule
		t.Errorf("policy rule = %s", got)
	}
	if got := s.ModeFor(chAddr2); got != OutDH { // default optimistic
		t.Errorf("default = %s", got)
	}
}

func TestRuleLongestPrefixPrecedence(t *testing.T) {
	s := NewSelector(StartPessimistic)
	dh := OutDH
	ie := OutIE
	s.AddRule(Rule{Prefix: ipv4.MustParsePrefix("17.0.0.0/8"), ForceMode: &ie})
	s.AddRule(Rule{Prefix: ipv4.MustParsePrefix("17.5.0.0/16"), ForceMode: &dh})
	if got := s.ModeFor(chAddr); got != OutDH {
		t.Errorf("longest rule should win: %s", got)
	}
}

func TestForgetAndReset(t *testing.T) {
	s := NewSelector(StartOptimistic)
	s.ModeFor(chAddr)
	s.ModeFor(chAddr2)
	s.Forget(chAddr)
	if s.CacheLen() != 1 {
		t.Errorf("cache len after Forget = %d", s.CacheLen())
	}
	s.Reset()
	if s.CacheLen() != 0 {
		t.Errorf("cache len after Reset = %d", s.CacheLen())
	}
}

// TestSelectorCacheIndex drives the method cache back and forth across
// the size where it starts using its index, with forgets, resets and
// upgrades, against a map of the mode each correspondent should hold.
func TestSelectorCacheIndex(t *testing.T) {
	s := NewSelector(StartPessimistic)
	want := map[ipv4.Addr]OutMode{}
	seed := uint32(1)
	next := func(n uint32) uint32 { // xorshift: a fixed, repeatable sequence
		seed ^= seed << 13
		seed ^= seed >> 17
		seed ^= seed << 5
		return seed % n
	}
	for step := 0; step < 5000; step++ {
		dst := ipv4.AddrFromUint32(0x0a000001 + next(3*stateIndexMin))
		switch op := next(20); {
		case op == 0:
			s.Reset()
			clear(want)
		case op < 5:
			s.Forget(dst)
			delete(want, dst)
		case op < 8:
			_, m := s.TryUpgrade(dst)
			want[dst] = m
		default:
			got := s.ModeFor(dst)
			if m, ok := want[dst]; ok && got != m {
				t.Fatalf("step %d: ModeFor(%s) = %s, want %s", step, dst, got, m)
			}
			want[dst] = got
		}
		if s.CacheLen() != len(want) {
			t.Fatalf("step %d: cache holds %d entries, want %d", step, s.CacheLen(), len(want))
		}
		for a, m := range want {
			if i := s.find(a); i < 0 || s.states[i].dst != a || s.states[i].mode != m {
				t.Fatalf("step %d: entry for %s lost or wrong (%s)", step, a, s.Snapshot(a))
			}
		}
	}
}

func TestSnapshot(t *testing.T) {
	s := NewSelector(StartOptimistic)
	if got := s.Snapshot(chAddr); got == "" {
		t.Error("empty snapshot")
	}
	s.ModeFor(chAddr)
	if got := s.Snapshot(chAddr); got == "" {
		t.Error("empty snapshot for cached entry")
	}
}

// TestSelectorAlwaysReturnsValidMode is the property test: under any
// sequence of feedback events, ModeFor returns one of the three
// home-address modes (never Out-DT — that choice belongs to the
// heuristics, not the home-address method cache).
func TestSelectorAlwaysReturnsValidMode(t *testing.T) {
	f := func(optimistic bool, events []byte) bool {
		pol := StartPessimistic
		if optimistic {
			pol = StartOptimistic
		}
		s := NewSelector(pol)
		for _, e := range events {
			switch e % 4 {
			case 0:
				s.ReportRetransmission(chAddr)
			case 1:
				s.ReportSuccess(chAddr)
			case 2:
				s.TryUpgrade(chAddr)
			case 3:
				m := s.ModeFor(chAddr)
				if m != OutIE && m != OutDE && m != OutDH {
					return false
				}
			}
		}
		m := s.ModeFor(chAddr)
		return m == OutIE || m == OutDE || m == OutDH
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStartPolicyString(t *testing.T) {
	if StartPessimistic.String() != "pessimistic" || StartOptimistic.String() != "optimistic" {
		t.Error("policy strings")
	}
}

// BenchmarkMethodCache is the DESIGN.md method-cache ablation: per-packet
// decision cost with the cache (steady conversation) vs without (fresh
// correspondent each time — the "decide afresh for every packet" case the
// paper's cache avoids).
func BenchmarkMethodCache(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		s := NewSelector(StartOptimistic)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ModeFor(chAddr)
		}
	})
	b.Run("uncached", func(b *testing.B) {
		s := NewSelector(StartOptimistic)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ModeFor(ipv4.AddrFromUint32(uint32(i)))
			if s.CacheLen() > 4096 {
				s.Reset()
			}
		}
	})
}
