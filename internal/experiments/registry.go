package experiments

import (
	"fmt"
	"slices"
	"strings"

	"mob4x4/internal/assert"
	"mob4x4/internal/fleet"
	"mob4x4/internal/metrics"
)

// The experiment registry: the one ordered list of everything cmd/mob4x4
// can run. The CLI's dispatch, usage text and violation exit, the
// determinism gate's rows (scripts/determinismdiff.go) and Report all
// iterate it, so adding an experiment is adding one entry here.

// Config is one invocation's settings, as parsed from the CLI flags. Each
// entry reads Seed, the fields its Flags name, and Parallel, Shards and
// Metrics when it declares Parallel, Shards and OwnMetrics.
type Config struct {
	Seed     int64
	Parallel int  // worker goroutines for independent trials
	Trials   int  // storm trials, seeds Seed..Seed+Trials-1
	Metrics  bool // -metrics or -metrics-json was given
	FleetSpec
}

// DefaultConfig is the CLI's defaults.
func DefaultConfig() Config {
	return Config{Seed: 1, Parallel: 1, Trials: 1,
		FleetSpec: FleetSpec{Nodes: 2000, Cells: 32, Model: fleet.ModelWaypoint, Shards: 1}}
}

// Validate rejects settings no experiment can run: a non-positive trial,
// node or cell count, more cells than the fleet can address, or an
// unknown movement model.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"trials", c.Trials}, {"nodes", c.Nodes}, {"cells", c.Cells}} {
		if f.v < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", f.name, f.v)
		}
	}
	if c.Cells > fleet.MaxCells {
		return fmt.Errorf("-cells must be at most %d, got %d", fleet.MaxCells, c.Cells)
	}
	if c.Model != fleet.ModelWaypoint && c.Model != fleet.ModelMarkov {
		return fmt.Errorf("-model must be %s or %s, got %q", fleet.ModelWaypoint, fleet.ModelMarkov, c.Model)
	}
	return nil
}

// Output is what one experiment run produced.
type Output struct {
	Text string // the tables and paths, printed as-is
	// Dumps are per-trial metrics snapshots, printed after Text under
	// -metrics / -metrics-json by entries that declare OwnMetrics.
	Dumps      []Dump
	Violations []Violation
	// Captures are the packet captures the run took, in cell order.
	Captures []Capture
}

// Capture is one named classic pcap file; `mob4x4 -pcap <dir>` writes it
// to <dir>/<Name>.pcap.
type Capture struct {
	Name string
	Pcap []byte
}

// Dump is one labelled metrics snapshot; TSV, when set, is the trial's
// sampled time series, printed after the snapshot.
type Dump struct {
	Label   string
	Metrics metrics.Snapshot
	TSV     string
}

// Violation is one broken invariant and the seed of the trial that broke
// it.
type Violation struct {
	Seed int64
	What string
}

// Experiment is one registry entry.
type Experiment struct {
	Name    string
	Aliases []string
	Heading string // report section title: experiment id and paper section

	// Flags are the experiment-specific flags it reads (without the
	// dash). The CLI echoes them, minus -trials, in the reproduce line of
	// a violation exit.
	Flags []string
	// Parallel: independent trials fan out over -parallel workers.
	// Shards: output is promised byte-identical for every -shards value.
	// The determinism gate compares both against the serial run.
	Parallel, Shards bool
	// OwnMetrics: under -metrics the entry renders its own form (Text or
	// Dumps) instead of the run-wide collector dump.
	OwnMetrics bool
	InAll      bool     // `mob4x4 all` and Report run it
	GateArgs   []string // the determinism gate's arguments, besides -seed/-parallel/-shards

	Run func(Config) Output
}

// Reads reports whether the entry reads the named flag.
func (e Experiment) Reads(flag string) bool { return slices.Contains(e.Flags, flag) }

// Lookup finds an entry by name or alias.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry {
		if e.Name == name || slices.Contains(e.Aliases, name) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Report runs every InAll entry and renders one markdown document, each
// entry's text under its heading: the machine-generated companion to
// EXPERIMENTS.md, deterministic per seed. The entries' captures follow
// in registry order.
func Report(c Config) Output {
	var b strings.Builder
	var caps []Capture
	fmt.Fprintf(&b, "# Internet Mobility 4x4 — measured results (seed %d)\n\n", c.Seed)
	c.Metrics = false
	for _, e := range Registry {
		if e.InAll {
			out := e.Run(c)
			fmt.Fprintf(&b, "## %s\n\n```\n%s```\n\n", e.Heading, out.Text)
			caps = append(caps, out.Captures...)
		}
	}
	return Output{Text: b.String(), Captures: caps}
}

// text wraps a plain-text result.
func text(s string) Output { return Output{Text: s} }

// stormFlags are the flags of the fleet-derived storms.
var stormFlags = []string{"trials", "nodes", "cells", "model"}

// stormGate sizes the storms for the determinism gate: the gate is about
// byte-equality, not scale, and CI pays for every run three times.
func stormGate(nodes, cells string) []string {
	return []string{"-nodes", nodes, "-cells", cells, "-trials", "2", "-metrics-json"}
}

// stormOutput assembles a storm's Output from its trials: the rendered
// table, one dump per trial (label and snapshot from dump) and every
// trial's violations tagged with its seed.
func stormOutput[R any](table string, rows []R, dump func(*R) (int64, []Dump, []string)) Output {
	out := Output{Text: table}
	for i := range rows {
		seed, dumps, viol := dump(&rows[i])
		out.Dumps = append(out.Dumps, dumps...)
		for _, v := range viol {
			out.Violations = append(out.Violations, Violation{Seed: seed, What: v})
		}
	}
	return out
}

// Registry is every experiment, in `mob4x4 all` and determinism-gate
// order.
var Registry = []Experiment{
	{Name: "fig1", Heading: "E1 — Figure 1, basic Mobile IP", InAll: true,
		Run: func(c Config) Output { return text(RunFig1(c.Seed).String()) }},
	{Name: "fig2", Heading: "E2/E3 — Figures 2 & 3, filtering and tunneling", InAll: true,
		Run: func(c Config) Output {
			return text(RunFig2(c.Seed, true).String() + "\n" + RunFig2(c.Seed, false).String())
		}},
	{Name: "fig3", Heading: "E3 — Figure 3, bi-directional tunneling under filtering",
		Run: func(c Config) Output { return text(RunFig2(c.Seed, true).String()) }},
	{Name: "fig4", Heading: "E4 — Figure 4, triangle routing", InAll: true,
		Run: func(c Config) Output {
			// Beyond d=16 the doubled triangle path exceeds the default
			// TTL (64) and In-IE stops delivering at all — a real
			// deployment consequence of triangle routing, but beyond the
			// figure's sweep.
			return text(Fig4Table(RunFig4(c.Seed, []int{0, 1, 2, 4, 8, 16})))
		}},
	{Name: "fig5", Heading: "E5 — Figure 5, care-of discovery", InAll: true,
		Run: func(c Config) Output { return text(RunFig5(c.Seed).String()) }},
	{Name: "formats", Heading: "E6/E7 — Figures 6-9, packet formats", InAll: true,
		Run: func(Config) Output { return text(FormatsTable(RunFormats())) }},
	{Name: "grid", Aliases: []string{"fig10"}, Heading: "E8 — Figure 10, the grid",
		Parallel: true, OwnMetrics: true, InAll: true, GateArgs: []string{"-metrics-json"},
		Run: func(c Config) Output { return gridOutput(c, RunGridParallel(c.Seed, c.Parallel)) }},
	{Name: "overhead", Heading: "E9 — §3.3, encapsulation overhead", InAll: true,
		GateArgs: []string{"-metrics-json"},
		Run: func(c Config) Output {
			table := OverheadTable(RunOverhead([]int{64, 512, 1400, 1456, 1460, 1470, 1475, 1480, 1500, 4000, 8192}, 1500))
			fr := RunTunnelFragmentation(c.Seed, 1460)
			return text(table + fmt.Sprintf("\nend-to-end: %dB payload crossed the backbone in %d packets plain, %d tunneled (delivered=%v)\n",
				fr.PayloadBytes, fr.PlainPackets, fr.TunnelPackets, fr.Delivered))
		}},
	{Name: "adaptive", Heading: "E10 — §7.1.2, start strategies", Parallel: true, InAll: true,
		Run: func(c Config) Output {
			return text(AdaptiveTable(RunAdaptiveParallel(c.Seed, true, c.Parallel)) + "\n" +
				AdaptiveTable(RunAdaptiveParallel(c.Seed, false, c.Parallel)))
		}},
	{Name: "durability", Heading: "E11 — §2, durability", Parallel: true, InAll: true,
		Run: func(c Config) Output {
			return text(DurabilityTable(RunDurabilityParallel(c.Seed, 3, c.Parallel)))
		}},
	{Name: "webbrowse", Heading: "Row D — web browsing", Parallel: true, InAll: true,
		Run: func(c Config) Output {
			var b strings.Builder
			b.WriteString("Row D — web browsing, 10 sequential fetches of 8KiB:\n")
			for _, r := range RunWebBrowseParallel(c.Seed, 10, c.Parallel) {
				fmt.Fprintf(&b, "  %-9s completed=%d/%d  time=%-12v backbone=%dB\n",
					r.Mode, r.Completed, r.Fetches, r.TotalTime, r.BackboneBytes)
			}
			return text(b.String())
		}},
	{Name: "fa", Heading: "§2 — attachment styles", InAll: true, GateArgs: []string{"-metrics-json"},
		Run: func(c Config) Output {
			return text(FATable([]FAResult{RunForeignAgent(c.Seed, false), RunForeignAgent(c.Seed, true)}))
		}},
	{Name: "transitions", Heading: "E12 — §7.2, correspondent transitions", InAll: true,
		Run: func(c Config) Output { return text(RunCorrespondentTransitions(c.Seed).String() + "\n") }},
	{Name: "multicast", Heading: "§6.4 — multicast", InAll: true,
		Run: func(c Config) Output {
			return text(MulticastTable([]MulticastResult{RunMulticast(c.Seed, true, 10), RunMulticast(c.Seed, false, 10)}))
		}},
	{Name: "trace", Heading: "tunnel opacity (traceroute)", InAll: true,
		Run: func(c Config) Output { return text(TraceTable(RunTraceroutes(c.Seed))) }},
	// httpgrid's stdout includes each cell's capture SHA-256, so its gate
	// row compares the captured pcap bytes themselves: repeats, -parallel
	// and -shards (accepted and ignored: cells are single-region) must all
	// reproduce the same wire traffic, timestamps included, even though
	// real net/http goroutines drive the virtual clock.
	{Name: "httpgrid", Heading: "E16 — HTTP + DNS over the socket facade, all 16 mode pairs",
		Flags: []string{"pcap"}, Parallel: true, Shards: true, InAll: true,
		Run: func(c Config) Output { return httpGridOutput(RunHTTPGridParallel(c.Seed, c.Parallel)) }},
	{Name: "dualmobile", Heading: "§1 — both hosts mobile", InAll: true,
		Run: func(c Config) Output { return text(RunDualMobile(c.Seed).String()) }},
	{Name: "asymmetry", Heading: "§2 — path asymmetry", InAll: true,
		Run: func(c Config) Output { return text(RunAsymmetry(c.Seed).String()) }},
	{Name: "savings", Heading: "§3.2 — shared-resource load", InAll: true, GateArgs: []string{"-metrics-json"},
		Run: func(c Config) Output { return text(SavingsTable(RunSavings(c.Seed))) }},
	// chaos accepts and ignores -shards, making the sharded-engine promise
	// trivially.
	{Name: "chaos", Heading: "E13 — fault injection & self-healing", Flags: []string{"trials"},
		Parallel: true, Shards: true, OwnMetrics: true, InAll: true,
		GateArgs: []string{"-trials", "2", "-metrics-json"},
		Run: func(c Config) Output {
			rows := RunChaosParallel(c.Seed, c.Trials, c.Parallel)
			return stormOutput(ChaosTable(rows), rows, func(r *ChaosResult) (int64, []Dump, []string) {
				var tsv strings.Builder
				err := metrics.WriteTSV(&tsv, r.Series, "ip/delivered", "drop/gilbert_elliott", "drop/blackhole", "drop/down")
				assert.NoError(err, "chaos: write series")
				return r.Seed, []Dump{{Label: fmt.Sprintf("chaos seed=%d", r.Seed), Metrics: r.Metrics, TSV: tsv.String()}}, r.Violations
			})
		}},
	{Name: "fleet", Heading: "E14 — fleet-scale handoff storm", Flags: stormFlags,
		Parallel: true, Shards: true, OwnMetrics: true, GateArgs: stormGate("60", "6"),
		Run: func(c Config) Output {
			rows := runTrials(c.Seed, c.Trials, c.Parallel, func(s int64) FleetResult { return RunFleet(s, c.FleetSpec) })
			return stormOutput(FleetTable(rows), rows, func(r *FleetResult) (int64, []Dump, []string) {
				return r.Seed, []Dump{{Label: fmt.Sprintf("fleet seed=%d", r.Seed), Metrics: r.Metrics}}, r.Violations
			})
		}},
	{Name: "adversary", Heading: "E15 — adversarial storm, hijack resistance", Flags: stormFlags,
		Parallel: true, Shards: true, OwnMetrics: true, GateArgs: stormGate("60", "6"),
		Run: func(c Config) Output {
			rows := runTrials(c.Seed, c.Trials, c.Parallel, func(s int64) AdversaryResult { return RunAdversary(s, c.FleetSpec) })
			return stormOutput(AdversaryTable(rows), rows, func(r *AdversaryResult) (int64, []Dump, []string) {
				a := &r.Attack
				return a.Seed, []Dump{{Label: fmt.Sprintf("adversary seed=%d (attacked run)", a.Seed), Metrics: a.Metrics}}, r.Violations
			})
		}},
	{Name: "routeopt", Heading: "E17 — route-optimization tier", Flags: stormFlags,
		Parallel: true, Shards: true, OwnMetrics: true, GateArgs: stormGate("24", "4"),
		Run: func(c Config) Output {
			// A single set gets the whole worker budget for its six
			// configurations; several sets share it one set per worker.
			inner := 1
			if c.Trials == 1 {
				inner = c.Parallel
			}
			rows := runTrials(c.Seed, c.Trials, c.Parallel, func(s int64) RouteOptResult { return RunRouteOpt(s, inner, c.FleetSpec) })
			return stormOutput(RouteOptTable(rows), rows, func(r *RouteOptResult) (int64, []Dump, []string) {
				var dumps []Dump
				for i := range r.Trials {
					t := &r.Trials[i]
					dumps = append(dumps, Dump{Label: fmt.Sprintf("routeopt seed=%d config=%s", t.Seed, t.Name), Metrics: t.Metrics})
				}
				return r.Trials[0].Seed, dumps, r.Violations
			})
		}},
}
