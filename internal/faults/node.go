package faults

import (
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/vtime"
)

// Link-window and node-level fault actions. Each schedules through
// Injector.At so the action lands in the fault log at its firing vtime.

// CutLink takes seg administratively down at time at and brings it back
// up after d. Frames sent during the window are dropped (drop/down).
func (inj *Injector) CutLink(at vtime.Time, seg *netsim.Segment, d vtime.Duration) {
	inj.At(at, "cut link "+seg.Name(), func() { seg.SetDown(true) })
	inj.At(at.Add(d), "heal link "+seg.Name(), func() { seg.SetDown(false) })
}

// FlapLink schedules n consecutive down/up cycles on seg starting at
// time at: down for downFor, up for upFor, repeated.
func (inj *Injector) FlapLink(at vtime.Time, seg *netsim.Segment, downFor, upFor vtime.Duration, n int) {
	for k := 0; k < n; k++ {
		inj.CutLink(at, seg, downFor)
		at = at.Add(downFor + upFor)
	}
}

// BounceInterface detaches ifc from its segment at time at and reattaches
// it to the same segment after downFor. onUp, if non-nil, runs right
// after reattachment (a mobile node hangs re-registration here).
func (inj *Injector) BounceInterface(at vtime.Time, ifc *stack.Iface, downFor vtime.Duration, onUp func()) {
	inj.At(at, "interface down "+ifc.NIC().Name(), func() {
		seg := ifc.NIC().Segment()
		ifc.Detach()
		inj.After(downFor, "interface up "+ifc.NIC().Name(), func() {
			ifc.Attach(seg)
			if onUp != nil {
				onUp()
			}
		})
	})
}

// CrashHomeAgent crashes ha at time at: all bindings, their expiry
// timers, address claims and proxy-ARP entries are lost (soft state).
func (inj *Injector) CrashHomeAgent(at vtime.Time, ha *mobileip.HomeAgent) {
	inj.At(at, "home agent crash", ha.Crash)
}

// RestartHomeAgent restarts a crashed ha at time at; bindings must be
// re-learned from mobile nodes' re-registrations.
func (inj *Injector) RestartHomeAgent(at vtime.Time, ha *mobileip.HomeAgent) {
	inj.At(at, "home agent restart", ha.Restart)
}
