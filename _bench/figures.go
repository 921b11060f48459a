package main

import (
	"fmt"
	"math/rand"
	"time"

	"mob4x4/internal/experiments"
	mmetrics "mob4x4/internal/metrics"
)

// experiment is one figures experiment: its CLI name and a function that
// renders what `mob4x4 <name>` prints for a seed (with one worker) and
// lists the problems its own checks find.
type experiment struct {
	name string
	run  func(seed int64) (string, []string)
}

func text(s string) (string, []string) { return s, nil }

// figureExperiments is every experiment `mob4x4 all` runs except
// httpgrid, whose socket driver waits out real-time settle windows, with
// the CLI's arguments.
var figureExperiments = []experiment{
	{"fig1", func(s int64) (string, []string) { return text(experiments.RunFig1(s).String()) }},
	{"fig2", func(s int64) (string, []string) {
		return text(experiments.RunFig2(s, true).String() + "\n" + experiments.RunFig2(s, false).String())
	}},
	{"fig4", func(s int64) (string, []string) {
		return text(experiments.Fig4Table(experiments.RunFig4(s, []int{0, 1, 2, 4, 8, 16})))
	}},
	{"fig5", func(s int64) (string, []string) { return text(experiments.RunFig5(s).String()) }},
	{"formats", func(int64) (string, []string) { return text(experiments.FormatsTable(experiments.RunFormats())) }},
	{"grid", func(s int64) (string, []string) {
		cells := experiments.RunGridParallel(s, 1)
		m, t, _ := experiments.GridAgreement(cells)
		var problems []string
		if m != 16 || t != 16 {
			problems = append(problems, fmt.Sprintf("grid agrees %d/%d with the paper, want 16/16", m, t))
		}
		return experiments.GridTable(cells) + fmt.Sprintf("agreement %d/%d\n", m, t), problems
	}},
	{"overhead", func(s int64) (string, []string) {
		table := experiments.OverheadTable(experiments.RunOverhead(
			[]int{64, 512, 1400, 1456, 1460, 1470, 1475, 1480, 1500, 4000, 8192}, 1500))
		fr := experiments.RunTunnelFragmentation(s, 1460)
		var problems []string
		if !fr.Delivered {
			problems = append(problems, "tunnel fragmentation: payload not delivered")
		}
		return table + fmt.Sprintf("%+v\n", fr), problems
	}},
	{"adaptive", func(s int64) (string, []string) {
		return text(experiments.AdaptiveTable(experiments.RunAdaptiveParallel(s, true, 1)) + "\n" +
			experiments.AdaptiveTable(experiments.RunAdaptiveParallel(s, false, 1)))
	}},
	{"durability", func(s int64) (string, []string) {
		return text(experiments.DurabilityTable(experiments.RunDurabilityParallel(s, 3, 1)))
	}},
	{"webbrowse", func(s int64) (string, []string) {
		return text(fmt.Sprintf("%+v\n", experiments.RunWebBrowseParallel(s, 10, 1)))
	}},
	{"fa", func(s int64) (string, []string) {
		return text(experiments.FATable([]experiments.FAResult{
			experiments.RunForeignAgent(s, false), experiments.RunForeignAgent(s, true)}))
	}},
	{"transitions", func(s int64) (string, []string) { return text(experiments.RunCorrespondentTransitions(s).String()) }},
	{"multicast", func(s int64) (string, []string) {
		return text(experiments.MulticastTable([]experiments.MulticastResult{
			experiments.RunMulticast(s, true, 10), experiments.RunMulticast(s, false, 10)}))
	}},
	{"trace", func(s int64) (string, []string) { return text(experiments.TraceTable(experiments.RunTraceroutes(s))) }},
	{"dualmobile", func(s int64) (string, []string) { return text(experiments.RunDualMobile(s).String()) }},
	{"asymmetry", func(s int64) (string, []string) { return text(experiments.RunAsymmetry(s).String()) }},
	{"savings", func(s int64) (string, []string) { return text(experiments.SavingsTable(experiments.RunSavings(s))) }},
	{"chaos", func(s int64) (string, []string) {
		rows := experiments.RunChaosParallel(s, 1, 1)
		var problems []string
		for _, r := range rows {
			for _, v := range r.Violations {
				problems = append(problems, fmt.Sprintf("chaos seed %d: %s", r.Seed, v))
			}
		}
		return experiments.ChaosTable(rows), problems
	}},
}

// passSeeds is how many experiment seeds the passes rotate through, so
// every (experiment, seed) recurs and its output can be compared with its
// first rendering.
const passSeeds = 4

// Set-up builds warmBuilds Figure-1 worlds untimed, so the heap has grown
// and been collected before timing starts, then setupBuilds timed ones;
// setup_s is the median of the timed builds.
const (
	warmBuilds  = 50
	setupBuilds = 201
)

// figures is the figures workload: serial passes over figureExperiments.
type figures struct {
	seeds  []int64
	first  map[string]string // "<experiment>/<seed>" -> first output
	passes int
	work   map[string]float64 // work counts of one pass
}

func newFigures(seed int64) *figures {
	rng := rand.New(rand.NewSource(seed))
	f := &figures{first: map[string]string{}}
	for i := 0; i < passSeeds; i++ {
		f.seeds = append(f.seeds, 1+rng.Int63n(1<<30))
	}
	return f
}

func (f *figures) minOps() int  { return 2 * passSeeds }
func (f *figures) workers() int { return 1 }

// setup times Figure-1 world builds (the construction every experiment
// repeats), then makes one counting pass per seed. Those passes warm the
// caches, record every first output and, through a metrics collector,
// count the work a pass does.
func (f *figures) setup(r *recorder) error {
	if err := buildWorlds(r, f.seeds, nil); err != nil {
		return err
	}
	var coll mmetrics.Collector
	experiments.SetCollector(&coll)
	for range f.seeds {
		r.led.record(f.pass(r))
	}
	experiments.SetCollector(nil)
	sum := map[string]uint64{}
	for _, ls := range coll.Snapshots() {
		addCounters(sum, ls.Snap, 1)
	}
	f.work = workCounts(sum, passSeeds)
	r.heapMB = append(r.heapMB, liveHeapMB())
	return nil
}

// buildWorlds builds Figure-1 worlds with the tracer discarded and
// registers each (Roam), taking the seeds in turn, and hands each world to
// ready, if not nil. Past the warmBuilds untimed ones, it records each
// world's set-up time (build, register and ready) and its build and
// register spans.
func buildWorlds(r *recorder, seeds []int64, ready func(*experiments.Scenario) error) error {
	for i := 0; i < warmBuilds+setupBuilds; i++ {
		t0 := time.Now()
		s := experiments.Build(experiments.Options{Seed: seeds[i%len(seeds)]})
		s.Net.Sim.Trace.Discard()
		t1 := time.Now()
		s.Roam()
		t2 := time.Now()
		if ready != nil {
			if err := ready(s); err != nil {
				return err
			}
		}
		t3 := time.Now()
		if i >= warmBuilds {
			r.span("build", t1.Sub(t0))
			r.span("register", t2.Sub(t1))
			r.setupS = append(r.setupS, t3.Sub(t0).Seconds())
		}
	}
	return nil
}

func (f *figures) op(r *recorder) opSample {
	var problems []string
	s := timed(func() { problems = f.pass(r) })
	s.problems = problems
	return s
}

// pass runs every experiment once with the next seed, records a span per
// experiment, and checks each output against its first rendering.
func (f *figures) pass(r *recorder) []string {
	seed := f.seeds[f.passes%passSeeds]
	f.passes++
	var problems []string
	for _, e := range figureExperiments {
		t0 := time.Now()
		out, bad := e.run(seed)
		r.span(e.name, time.Since(t0))
		problems = append(problems, bad...)
		key := fmt.Sprintf("%s/%d", e.name, seed)
		if first, ok := f.first[key]; !ok {
			f.first[key] = out
		} else if first != out {
			problems = append(problems, fmt.Sprintf("%s seed %d: output differs from its first rendering", e.name, seed))
		}
	}
	return problems
}

func (f *figures) counts() map[string]float64 { return f.work }

func (f *figures) report(out *metricSet, ops []opSample) {
	walls := make([]float64, len(ops))
	for i, s := range ops {
		walls[i] = ms(s.wall)
	}
	out.set("pass_ms.p50", median(walls), "ms")
	if p, ok := tailPercentile(len(walls)); ok {
		out.set(fmt.Sprintf("pass_ms.p%g", p), percentile(walls, p), "ms")
	}
}
