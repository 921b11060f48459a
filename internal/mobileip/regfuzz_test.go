package mobileip_test

import (
	"testing"

	"mob4x4/internal/vtime"
)

// Operations FuzzRegistrationMoves decodes, one per input byte: the byte
// modulo numRegOps picks the operation, and for opRun the quotient picks
// how long to run (1–8 steps of 250ms).
const (
	opMoveTo = iota
	opGoHome
	opDetach
	opReregister
	opCrash
	opRestart
	opRun
	numRegOps
)

// run encodes opRun for k steps of 250ms.
func run(k int) byte { return byte(opRun + numRegOps*(k-1)) }

// FuzzRegistrationMoves drives the mobile node's registration state
// machine through arbitrary sequences of moves, detaches, re-registrations
// and home-agent crashes, with a short lifetime, a small retry budget and
// recovery probing on. After every step the node's location and binding
// must agree: at home it has no binding and its care-of address is its
// home address; away, attached or not, the care-of address is not the
// home one (a node detached at home has none). An illegal state move panics inside the node. Whatever the history,
// a move to a live agent must end registered there within two lifetimes.
func FuzzRegistrationMoves(f *testing.F) {
	f.Add([]byte{opMoveTo, run(4), opGoHome, run(2)})
	f.Add([]byte{opCrash, opMoveTo, run(8), run(8), opRestart, run(8), run(8)})
	f.Add([]byte{opMoveTo, opDetach, run(3), opReregister, opCrash, run(8), opGoHome, opDetach})
	f.Add([]byte{opMoveTo, run(8), run(8), run(8), opReregister, opMoveTo, run(1), opGoHome, opMoveTo})

	const lifetime = 4 // seconds
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		w := buildWorld(t, worldOpts{lifetime: lifetime, regMaxRetries: 2, regProbeInterval: 3e9})
		mn := w.mn
		moves := 0
		moveTo := func() {
			// Cycle through 50 addresses clear of the LAN's own hosts so
			// long inputs never exhaust the /24.
			moves++
			careOf := w.visitLAN.Prefix.Host(100 + moves%50)
			mn.MoveTo(w.visitLAN.Seg, careOf, w.visitLAN.Prefix, w.visitLAN.Gateway)
		}
		check := func(step int) {
			t.Helper()
			atHome, onHome := mn.AtHome(), mn.CareOf() == mn.Home()
			if atHome != onHome {
				t.Fatalf("step %d: AtHome()=%v but care-of %v, home %v", step, atHome, mn.CareOf(), mn.Home())
			}
			if mn.Registered() && atHome {
				t.Fatalf("step %d: registered while at home", step)
			}
		}
		for i, b := range ops {
			switch b % numRegOps {
			case opMoveTo:
				moveTo()
			case opGoHome:
				mn.GoHome(w.homeLAN.Seg, w.homeLAN.Gateway)
			case opDetach:
				mn.Detach()
			case opReregister:
				mn.Reregister()
			case opCrash:
				w.ha.Crash()
			case opRestart:
				w.ha.Restart()
			case opRun:
				w.net.RunFor(vtime.Duration(int(b/numRegOps)%8+1) * 250 * ms)
			}
			check(i)
		}
		w.ha.Restart()
		moveTo()
		w.net.RunFor(2 * lifetime * 1e9)
		check(len(ops))
		if !mn.Registered() {
			t.Fatalf("not registered two lifetimes after moving to a live agent (%d renewals, %d fails)",
				mn.Stats.Renewals, mn.Stats.RegistrationFails)
		}
		if got, ok := w.ha.CareOf(mn.Home()); !ok || got != mn.CareOf() {
			t.Fatalf("home agent binds %v (ok=%v), node's care-of is %v", got, ok, mn.CareOf())
		}
	})
}
