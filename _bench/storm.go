package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mob4x4/internal/fleet"
)

// storm is the storm and storm-secure workloads: E14's handoff storm, and
// E15's attacked configuration of it. An op is one fleet.Run, timed; the
// fleet.New before it is untimed.
type storm struct {
	opts       fleet.Options
	refWorkers int
	ref        string // rendering of the cross-check's result
	last       fleet.Result
}

func newStorm(seed int64, secure bool) *storm {
	rng := rand.New(rand.NewSource(seed))
	workers := min(2, runtime.NumCPU()) // never more workers than cores
	st := &storm{opts: fleet.Options{
		Seed:    1 + rng.Int63n(1<<30),
		Nodes:   2000,
		Cells:   32,
		Model:   fleet.ModelWaypoint,
		Workers: workers,
	}}
	st.refWorkers = 1
	if secure {
		st.opts.Auth = true
		st.opts.Attack.Enabled = true
		st.opts.Workers, st.refWorkers = 1, workers
	}
	return st
}

func (st *storm) minOps() int  { return 2 }
func (st *storm) workers() int { return st.opts.Workers }

// stormBuilds is how many fleets set-up builds and times; setup_s is their
// median.
const stormBuilds = 5

// setup runs the cross-check, the same storm on the other worker count,
// whose result every op must reproduce exactly. Then it times stormBuilds
// builds of the storm's fleet and reads the live heap after the last.
func (st *storm) setup(r *recorder) error {
	opts := st.opts
	opts.Workers = st.refWorkers
	res := fleet.New(opts).Run()
	r.led.record(violations(&res))
	st.ref = render(&res)
	for i := 0; i < stormBuilds; i++ {
		t0 := time.Now()
		f := fleet.New(st.opts)
		d := time.Since(t0)
		r.setupS = append(r.setupS, d.Seconds())
		r.span("build", d)
		if i == stormBuilds-1 {
			r.heapMB = append(r.heapMB, liveHeapMB())
		}
		runtime.KeepAlive(f)
	}
	return nil
}

// op builds a fleet and times its Run.
func (st *storm) op(*recorder) opSample {
	f := fleet.New(st.opts)
	var res fleet.Result
	s := timed(func() { res = f.Run() })
	s.problems = violations(&res)
	if render(&res) != st.ref {
		s.problems = append(s.problems, fmt.Sprintf("result at %d worker(s) differs from the run at %d",
			st.opts.Workers, st.refWorkers))
	}
	st.last = res
	return s
}

func violations(res *fleet.Result) []string {
	var v []string
	for _, s := range res.Violations {
		v = append(v, "invariant: "+s)
	}
	return v
}

// render is the whole result as text: two runs agree iff these agree.
func render(res *fleet.Result) string { return fmt.Sprintf("%+v", *res) }

func (st *storm) counts() map[string]float64 {
	sum := map[string]uint64{}
	addCounters(sum, st.last.Metrics, 1)
	return workCounts(sum, 1)
}

func (st *storm) report(out *metricSet, ops []opSample) {
	out.set("run_s", medianWall(ops).Seconds(), "s")
}
