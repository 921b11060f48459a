// Command perfbench is the reproduction's benchmark: one in-process program
// that drives the public entry points of internal/experiments and
// internal/fleet on virtual time and reports what the simulation costs in
// wall time, memory and CPU, end to end and layer by layer.
//
// Usage (from the repository root; run.sh builds it first):
//
//	perfbench --workload figures|stream|storm|storm-secure --seed N --seconds S --trace 0|1 [--results DIR]
//
// With --trace 0 the run measures for S seconds with no instrumentation and
// reports the end-to-end metrics; its two times are scaled to a machine of
// reference speed (see reference.go). With --trace 1 it measures untraced for
// half of S, then for the other half under a CPU and a block profile, and
// reports the per-layer metrics. Human-readable "name value unit" lines
// come first; the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md lists every
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// note is recorded in every results file.
const note = "All traffic is simulated on virtual time inside this one process; " +
	"nothing crosses a real link or the loopback interface."

// workloadWhy says why each workload exists (also in BENCHMARK.json).
var workloadWhy = map[string]string{
	"figures":      "serial passes over every paper experiment but httpgrid: many small scenario builds, so construction, RNG streams and the tracer dominate",
	"stream":       "one Figure-1 world built once, then closed-loop UDP echoes through the home agent's IPIP tunnel at 64 B and 1472 B: per-packet cost only",
	"storm":        "E14 handoff storm, 2000 nodes, 32 cells, waypoint, 2 workers: shard sync and registration at scale on the critical path",
	"storm-secure": "E15 attacked storm (HMAC registration, replay windows, reject paths), same size, 1 worker: the signed path and the serial engine",
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds named metrics and keeps the order they were added in.
type metricSet struct {
	names []string
	m     map[string]metric
}

func (s *metricSet) set(name string, v float64, unit string) {
	if s.m == nil {
		s.m = map[string]metric{}
	}
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// opSample is one op's timed part.
type opSample struct {
	wall     time.Duration
	allocB   uint64 // heap bytes allocated
	allocN   uint64 // heap objects allocated
	problems []string
}

// add accounts another timed part of the same op.
func (s *opSample) add(o opSample) {
	s.wall += o.wall
	s.allocB += o.allocB
	s.allocN += o.allocN
}

// recorder collects what a workload measures besides its op samples.
type recorder struct {
	setupS []float64            // setup times, seconds
	heapMB []float64            // live heap after setup and a GC, MB
	spans  map[string][]float64 // spans around public calls, ms
	led    ledger
}

func (r *recorder) span(name string, d time.Duration) {
	if r.spans == nil {
		r.spans = map[string][]float64{}
	}
	r.spans[name] = append(r.spans[name], ms(d))
}

// workload is one benchmark workload.
type workload interface {
	// setup builds what the ops share, recording setup times, the live
	// heap and spans into r. An error means the run cannot proceed.
	setup(r *recorder) error
	// op runs one op.
	op(r *recorder) opSample
	// minOps is the fewest ops a measuring phase runs, whatever its time.
	minOps() int
	// workers is how many goroutines drive the simulation in an op.
	workers() int
	// counts returns the reproduction's own work counts for one op.
	counts() map[string]float64
	// report adds the workload's own end-to-end figures, from the op
	// samples of the untraced phase.
	report(out *metricSet, ops []opSample)
}

func main() {
	name := flag.String("workload", "", "workload: figures, stream, storm or storm-secure")
	seed := flag.Int64("seed", 1, "workload seed; the inputs are a function of it")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced phase and reports the per-layer metrics")
	results := flag.String("results", "", "directory to write the results file into (none if empty)")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(w, *name, *seed, *seconds, *trace == 1, *results); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "figures":
		return newFigures(seed), nil
	case "stream":
		return newStream(seed), nil
	case "storm":
		return newStorm(seed, false), nil
	case "storm-secure":
		return newStorm(seed, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run(w workload, name string, seed int64, seconds float64, traced bool, resultsDir string) error {
	ref, err := newReference()
	if err != nil {
		return err
	}
	ref.round()
	var r recorder
	if err := w.setup(&r); err != nil {
		return fmt.Errorf("%s setup: %w", name, err)
	}
	phase := seconds
	if traced {
		phase = seconds / 2
	}
	plain := measure(w, &r, phase, ref)
	e2e := endToEnd(w, &r, plain, ref.slowness())

	out := e2e
	if traced {
		layers, err := measureTraced(w, &r, phase, plain)
		if err != nil {
			return err
		}
		out = layers
	}

	printLines(name, &e2e)
	if traced {
		printLines(name, &out)
	}
	for _, p := range r.led.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, p)
	}
	if resultsDir != "" {
		if err := writeResults(resultsDir, name, seed, seconds, traced, &e2e, &out, &r.led); err != nil {
			return err
		}
	}
	names := endToEndNames
	if traced {
		names = perLayerNames()
	}
	result := map[string]metric{}
	for _, n := range names {
		m, ok := out.m[n]
		if !ok {
			return fmt.Errorf("%s: metric %s not measured", name, n)
		}
		result[n] = m
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.led.failed == 0, r.led.attempted, r.led.failed, result}
	b, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measure runs ops for the given seconds (but at least w.minOps()) and
// returns their samples. It starts no op it expects to finish after the
// deadline, judging by the median op so far. Between ops it runs the
// reference when a round is due, unless ref is nil.
func measure(w workload, r *recorder, seconds float64, ref *reference) []opSample {
	var ops []opSample
	var walls []float64
	start := time.Now()
	deadline := time.Duration(seconds * float64(time.Second))
	for {
		if len(ops) >= w.minOps() {
			left := deadline - time.Since(start)
			if left <= 0 || (len(walls) > 0 && median(walls) > left.Seconds()) {
				break
			}
		}
		if ref != nil {
			ref.due()
		}
		s := w.op(r)
		r.led.record(s.problems)
		ops = append(ops, s)
		walls = append(walls, s.wall.Seconds())
	}
	return ops
}

// endToEnd computes the metrics listed under end_to_end in BENCHMARK.json
// plus the workload's own figures. The two times of the result line are
// divided by the reference's slowness; their wall times are report lines.
func endToEnd(w workload, r *recorder, ops []opSample, slowness float64) metricSet {
	var out metricSet
	walls := make([]float64, len(ops))
	var alloc float64
	for i, s := range ops {
		walls[i] = ms(s.wall)
		alloc += float64(s.allocB)
	}
	setup, op := median(r.setupS), median(walls)
	out.set("setup_s", setup/slowness, "s")
	out.set("op_ms.p50", op/slowness, "ms")
	out.set("alloc_kb_per_op", alloc/float64(len(ops))/1024, "KiB")
	out.set("live_heap_mb", median(r.heapMB), "MB")
	out.set("slowness", slowness, "ratio")
	out.set("setup_s.wall", setup, "s")
	out.set("op_ms.p50.wall", op, "ms")
	out.set("ops", float64(len(ops)), "count")
	if p, ok := tailPercentile(len(walls)); ok {
		out.set(fmt.Sprintf("op_ms.p%g", p), percentile(walls, p), "ms")
	}
	out.set("error_rate", r.led.errorRate(), "ratio")
	w.report(&out, ops)
	return out
}

// liveHeapMB collects garbage and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// allocated returns the heap bytes and objects allocated so far by the
// process.
func allocated() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// timed runs fn and returns its wall time and what it allocated.
func timed(fn func()) opSample {
	b0, n0 := allocated()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	b1, n1 := allocated()
	return opSample{wall: d, allocB: b1 - b0, allocN: n1 - n0}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func printLines(workload string, s *metricSet) {
	for _, n := range s.names {
		m := s.m[n]
		fmt.Printf("%s %s %.6g %s\n", workload, n, m.Value, m.Unit)
	}
}

// machine describes where the numbers were measured.
func machine() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
	}
}

// cpuModel reads the processor name Linux reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeResults(dir, name string, seed int64, seconds float64, traced bool, e2e, layers *metricSet, led *ledger) error {
	doc := map[string]any{
		"workload":   name,
		"why":        workloadWhy[name],
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"machine":    machine(),
		"note":       note,
		"attempted":  led.attempted,
		"failed":     led.failed,
		"problems":   led.problems,
		"end_to_end": e2e.m,
	}
	if traced {
		doc["per_layer"] = layers.m
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if traced {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}
