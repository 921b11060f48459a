// Package faults is the deterministic fault-injection subsystem: a
// vtime-scheduled fault plan plus reusable link- and node-level
// impairments for the netsim/mobileip stack.
//
// The paper's argument (Sections 4-6) is that the best of the 4x4 modes
// shifts as the network turns hostile — filters appear, tunnels break,
// agents die. The steady-state simulator can only express uniform random
// loss; this package expresses the hostile transitions: Gilbert-Elliott
// burst loss, duplication, reordering, bit corruption, source-address
// blackholes (ingress filtering appearing mid-conversation), link
// partition windows, agent crashes and interface bounces.
//
// Determinism contract: every random draw comes from the simulation
// scheduler's RNG, every fault fires at a scheduled virtual time, and
// the injector log records what happened when. Two runs with the same
// seed and the same plan produce byte-identical traces; a segment with
// no hook installed pays one nil-check per frame and nothing else.
package faults

import (
	"fmt"
	"strings"

	"mob4x4/internal/netsim"
	"mob4x4/internal/vtime"
)

// Injector owns a simulation's fault plan: a set of scheduled fault
// actions and the vtime-stamped log of everything that fired. One
// injector per Sim.
type Injector struct {
	sim *netsim.Sim
	log []string
}

// NewInjector returns an injector for sim with an empty plan.
func NewInjector(sim *netsim.Sim) *Injector {
	return &Injector{sim: sim}
}

// Sim returns the owning simulation.
func (inj *Injector) Sim() *netsim.Sim { return inj.sim }

// At schedules fn at absolute virtual time at. When it fires, the action
// is logged (vtime-stamped, and mirrored as an EventNote in the trace)
// before fn runs.
func (inj *Injector) At(at vtime.Time, what string, fn func()) {
	inj.sim.Sched.At(at, func() {
		inj.note(what)
		if fn != nil {
			fn()
		}
	})
}

// After schedules fn after a delay from now, with the same logging as At.
func (inj *Injector) After(d vtime.Duration, what string, fn func()) {
	inj.At(inj.sim.Now().Add(d), what, fn)
}

func (inj *Injector) note(what string) {
	inj.log = append(inj.log, fmt.Sprintf("%d %s", int64(inj.sim.Now()), what))
	if tr := inj.sim.Trace; tr.On() {
		tr.Record(netsim.Event{
			Kind: netsim.EventNote, Time: inj.sim.Now(), Where: "faults",
			Detail: what,
		})
	}
}

// Log returns the fired-fault log: one "<vtime-ns> <action>" line per
// fault action, in firing order. Deterministic per seed and plan.
func (inj *Injector) Log() []string { return inj.log }

// LogText renders the log as one newline-joined block (trailing newline
// when non-empty), for experiment output.
func (inj *Injector) LogText() string {
	if len(inj.log) == 0 {
		return ""
	}
	return strings.Join(inj.log, "\n") + "\n"
}
