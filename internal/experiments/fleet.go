package experiments

import (
	"fmt"
	"strings"

	"mob4x4/internal/core"
	"mob4x4/internal/fleet"
)

// The fleet experiment (E14): the handoff storm. A metro-scale topology
// (home network + K visited cells behind a routed backbone), N mobile
// nodes roaming under a seeded movement model, and a scripted storm: a
// home-uplink partition mid-churn followed by a commanded mass move of
// every node at once. The registration machinery must re-form every
// binding by the end of the run, with every drop accounted for, and the
// whole trial byte-reproducible per seed.

// FleetSpec selects the fleet's shape for all three fleet-derived storms
// (fleet, adversary, routeopt); the storm schedule and the rest of the
// knobs are the fleet package's constants and fleet.Options defaults.
type FleetSpec struct {
	Nodes int
	Cells int
	Model string // "waypoint" or "markov"

	// Shards is the worker-goroutine count driving the region shards
	// inside each trial (fleet.Options.Workers). Orthogonal to the
	// trial-level parallelism of Config.Parallel: that knob runs whole
	// trials concurrently, this one parallelizes the regions of a single
	// trial. Output is byte-identical for any value.
	Shards int
}

// options is the fleet.Options of one trial of this shape at seed.
func (spec FleetSpec) options(seed int64) fleet.Options {
	return fleet.Options{Seed: seed, Nodes: spec.Nodes, Cells: spec.Cells, Model: spec.Model, Workers: spec.Shards}
}

// FleetResult is one fleet trial's deterministic outcome.
type FleetResult = fleet.Result

// RunFleet runs one E14 trial. The result is a pure function of
// (seed, spec).
func RunFleet(seed int64, spec FleetSpec) FleetResult {
	return fleet.New(spec.options(seed)).Run()
}

// FleetTable renders fleet trials: a summary line per trial, the
// per-trial (Out, In) mode-mix matrix, and (single-trial runs only) the
// fault log.
func FleetTable(rows []FleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E14 — fleet handoff storm\n")
	fmt.Fprintf(&b, "  %-6s %6s %6s %9s %7s %9s %10s %10s %10s %6s %7s %7s %5s\n",
		"seed", "nodes", "cells", "model", "moves", "handoffs", "p50(ms)", "p95(ms)", "p99(ms)", "fails", "down", "filter", "viol")
	for i := range rows {
		r := &rows[i]
		fmt.Fprintf(&b, "  %-6d %6d %6d %9s %7d %9d %10.1f %10.1f %10.1f %6d %7d %7d %5d\n",
			r.Seed, r.Nodes, r.Cells, r.Model, r.Moves, r.Handoffs,
			float64(r.HandoffP50)/1e6, float64(r.HandoffP95)/1e6, float64(r.HandoffP99)/1e6,
			r.RegistrationFails, r.DownDrops, r.FilterDrops, len(r.Violations))
	}
	for i := range rows {
		r := &rows[i]
		fmt.Fprintf(&b, "  seed %d mode mix (rows Out, cols In; workload conversations):\n", r.Seed)
		fmt.Fprintf(&b, "    %8s", "")
		for in := 0; in < core.NumInModes; in++ {
			fmt.Fprintf(&b, " %8s", core.InMode(in).String())
		}
		fmt.Fprintf(&b, "\n")
		for out := 0; out < core.NumOutModes; out++ {
			fmt.Fprintf(&b, "    %8s", core.OutMode(out).String())
			for in := 0; in < core.NumInModes; in++ {
				fmt.Fprintf(&b, " %8d", r.ModeMix[out][in])
			}
			fmt.Fprintf(&b, "\n")
		}
		fmt.Fprintf(&b, "    registered %d/%d  bindings %d  renewals %d  probes %d  expiries %d  pending %d\n",
			r.RegisteredAtEnd, r.Nodes, r.BindingsAtEnd, r.Renewals, r.RecoveryProbes, r.Expiries, r.PendingAfterDrain)
	}
	for i := range rows {
		writeViolations(&b, rows[i].Seed, rows[i].Violations)
	}
	if len(rows) == 1 {
		writeFaultLog(&b, "vtime ns", rows[0].FaultLog)
	}
	return b.String()
}
