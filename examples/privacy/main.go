// Privacy: the Out-IE motivation from Section 4 — "In some situations,
// mobile users may not wish to reveal their current location to the
// correspondent host." With privacy mode on, every packet is tunneled via
// the home agent even though cheaper direct modes are available, and the
// correspondent's side of the network only ever sees the home address.
package main

import (
	"fmt"
	"strings"

	"mob4x4/internal/core"
	"mob4x4/internal/experiments"
	"mob4x4/internal/netsim"
)

func main() {
	run := func(privacy bool) {
		// Without privacy: a mobile-aware correspondent learns the
		// binding from the home agent's notices and exchanges packets
		// directly — the care-of address appears in the outer headers
		// crossing the correspondent's border router. With privacy:
		// notices stay off and the mobile host pins everything to
		// Out-IE, so only the home address is ever visible there.
		s := experiments.Build(experiments.Options{
			Seed:     5,
			Notices:  !privacy,
			CHAware:  !privacy,
			CHDecap:  !privacy,
			Selector: core.NewSelector(core.StartOptimistic),
		})
		s.Roam()
		s.MN.SetPrivacy(privacy)
		careOf := s.MN.CareOf().String()
		log, stop := s.Net.Sim.Trace.Capture()
		// Two pings: the first teaches the correspondent (if aware),
		// the second uses whatever mode it learned.
		s.PingFrom(s.CHFarIC, s.CHFar, s.MN.Home(), 10*experiments.Second)

		p := s.PingFrom(s.CHFarIC, s.CHFar, s.MN.Home(), 10*experiments.Second)
		stop()

		// Did the care-of address ever appear in traffic near the
		// correspondent (at its border router)?
		careOfVisible := false
		for _, e := range *log {
			if e.Where == "farGW" && e.Kind == netsim.EventForward &&
				strings.Contains(e.Detail, careOf) {
				careOfVisible = true
			}
		}

		label := "privacy OFF (optimistic, direct replies)"
		if privacy {
			label = "privacy ON  (everything via home agent)"
		}
		fmt.Printf("%s\n", label)
		fmt.Printf("  reply delivered=%v from %s\n  reply path: %s\n", p.Delivered, p.ReplySource, p.ReplyPath)
		fmt.Printf("  care-of address visible near the correspondent: %v\n\n", careOfVisible)
	}
	run(false)
	run(true)
	fmt.Println("with privacy on, the correspondent's network never sees the care-of address;")
	fmt.Println("the cost is indirect delivery of every packet (Out-IE, Section 4).")
}
