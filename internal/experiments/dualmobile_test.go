package experiments

import (
	"testing"

	"mob4x4/internal/tcplite"
)

func TestDualMobileSessionSurvives(t *testing.T) {
	r := RunDualMobile(31)
	if !r.Established {
		t.Fatal("session never established")
	}
	if !r.Survived {
		t.Fatalf("session did not survive dual mobility:\n%s", r.String())
	}
	for name, n := range map[string]int{
		"both-home":   r.EchoesBothHome,
		"mh1-roamed":  r.EchoesMH1Roamed,
		"both-roamed": r.EchoesBothRoamed,
		"after-moves": r.EchoesAfterMoves,
	} {
		if n == 0 {
			t.Errorf("no progress in epoch %s", name)
		}
	}
	// With both hosts away, each side's agent must be doing tunnel work.
	if r.HA1Forwarded == 0 || r.HA2Forwarded == 0 {
		t.Errorf("agents idle: ha1=%d ha2=%d", r.HA1Forwarded, r.HA2Forwarded)
	}
}

// TestSleepWakeSessionResumes exercises the paper's §2 anecdote: "putting
// a laptop computer to sleep while moving it from place to place does not
// necessarily break connections ... idle telnet connections that are
// preserved for hours". The mobile host sleeps long enough for its
// binding to lapse, wakes on a different network, re-registers, and the
// idle session picks up where it left off.
func TestSleepWakeSessionResumes(t *testing.T) {
	s := Build(Options{Seed: 47, Selector: nil})
	if _, err := s.CHFarTCP.Listen(23, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) { _ = c.Write(p) }
	}); err != nil {
		t.Fatal(err)
	}
	s.Roam()

	echoes := 0
	dead := false
	conn, err := s.MHTCP.Dial(s.MN.Home(), s.CHFar.FirstAddr(), 23)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnData = func(p []byte) { echoes++ }
	conn.OnError = func(error) { dead = true }
	conn.OnEstablished = func() { _ = conn.Write([]byte("before sleep")) }
	s.Net.RunFor(5 * Second)
	if echoes == 0 {
		t.Fatal("session never worked")
	}

	// Sleep: detached for 5 minutes of virtual time — far past the 120s
	// registration lifetime, so the home agent forgets the binding.
	s.MN.Detach()
	s.Net.RunFor(300 * Second)
	if s.HA.Bindings() != 0 {
		t.Fatal("binding survived the sleep")
	}

	// Wake on the other visited network and use the same connection.
	s.RoamB()
	before := echoes
	if err := conn.Write([]byte("after wake")); err != nil {
		t.Fatalf("write after wake: %v", err)
	}
	s.Net.RunFor(30 * Second)

	if dead {
		t.Fatal("session died across sleep")
	}
	if echoes <= before {
		t.Error("no echo after wake; session did not resume")
	}
}

// TestTwoHomeAgentsBindingsSum: with two home agents in one Sim, the
// registry's ha/bindings level is the sum of both agents' tables, read
// from their state, not whichever agent wrote a gauge last.
func TestTwoHomeAgentsBindingsSum(t *testing.T) {
	s := Build(Options{Seed: 31, SecondMobile: true})
	s.Roam()
	s.MN2.MoveTo(s.VisitB.Seg, s.VisitB.NextAddr(), s.VisitB.Prefix, s.VisitB.Gateway)
	s.Net.RunFor(8 * Second)

	want := int64(s.HA.Bindings() + s.HA2.Bindings())
	if want != 2 {
		t.Fatalf("HA bindings %d + HA2 bindings %d, want one each", s.HA.Bindings(), s.HA2.Bindings())
	}
	levels := map[string]int64{}
	for _, g := range s.Net.Sim.Metrics.Snapshot().Gauges {
		levels[g.Name] = g.Value
	}
	if got := levels["ha/bindings"]; got != want {
		t.Errorf("ha/bindings = %d, want %d", got, want)
	}
	if got := levels["mn/registered"]; got != 2 {
		t.Errorf("mn/registered = %d, want 2", got)
	}
}
