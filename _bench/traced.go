package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	mmetrics "mob4x4/internal/metrics"
)

// figureNames are the experiments a figures pass runs, in order; each
// gets a span_ms.<name> row.
var figureNames = func() []string {
	names := make([]string, len(figureExperiments))
	for i, e := range figureExperiments {
		names[i] = e.name
	}
	return names
}()

// countNames are the work counts every workload reports per op.
var countNames = []string{
	"count.registrations", "count.renewals", "count.registration_fails",
	"count.recovery_probes", "count.auth_rejects", "ratio.reg_success",
	"count.link_frames", "count.link_bytes", "count.ip_forwarded", "count.ip_delivered",
	"count.tunnel_encaps", "count.tunnel_decaps", "count.ha_forwarded",
	"count.handoffs", "count.moves", "count.drops", "ratio.handoff_success",
}

// endToEndNames are the metrics of an untraced run's result line; they
// match end_to_end in BENCHMARK.json.
var endToEndNames = []string{"setup_s", "op_ms.p50", "alloc_kb_per_op", "live_heap_mb"}

// perLayerNames are the metrics of a traced run's result line; they match
// per_layer in BENCHMARK.json. Every workload measures each of them; a
// layer a workload does not exercise reads 0. Wall-time rows that only
// some workloads have (wait_s.vtime, span_ms.register and the per
// experiment spans) go to the report lines and the results file instead.
func perLayerNames() []string {
	var names []string
	for _, l := range allLayers {
		names = append(names, "self_s."+l)
	}
	names = append(names, "cpu.sampled_s", "wait_share.vtime", "cpu.idle_share",
		"sched.latency_p99_us", "gc.cpu_share", "gc.cycles", "count.allocs")
	names = append(names, countNames...)
	return append(names, "ns_per_frame", "allocs_per_frame", "span_ms.build", "trace.overhead")
}

var runtimeMetricNames = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

// readRuntime samples runtimeMetricNames. The CPU classes are only brought
// up to date by a garbage collection, so it runs one first.
func readRuntime() []metrics.Sample {
	runtime.GC()
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// measureTraced runs the traced phase: ops for the given seconds under a
// CPU profile and a block profile. It returns the per-layer metrics, each
// per op unless its name says otherwise.
func measureTraced(w workload, r *recorder, seconds float64, plain []opSample) (metricSet, error) {
	before := readRuntime()
	var cpu bytes.Buffer
	runtime.SetBlockProfileRate(1)
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return metricSet{}, fmt.Errorf("cpu profile: %w", err)
	}
	t0 := time.Now()
	traced := measure(w, r, seconds, nil)
	phaseWall := time.Since(t0)
	pprof.StopCPUProfile()
	runtime.SetBlockProfileRate(0)
	after := readRuntime()
	var block bytes.Buffer
	if err := pprof.Lookup("block").WriteTo(&block, 0); err != nil {
		return metricSet{}, fmt.Errorf("block profile: %w", err)
	}

	ops := float64(len(traced))
	var out metricSet
	cpuSamples, err := parseProfile(cpu.Bytes())
	if err != nil {
		return metricSet{}, fmt.Errorf("cpu profile: %w", err)
	}
	self, total := selfTimes(cpuSamples)
	for _, l := range allLayers {
		out.set("self_s."+l, self[l]/ops, "cpu-s")
	}
	out.set("cpu.sampled_s", total/ops, "cpu-s")
	blockSamples, err := parseProfile(block.Bytes())
	if err != nil {
		return metricSet{}, fmt.Errorf("block profile: %w", err)
	}
	wait := waitTimes(blockSamples)[layerVtime]
	out.set("wait_s.vtime", wait/ops, "s")
	out.set("wait_share.vtime", ratio(wait, phaseWall.Seconds()*float64(w.workers())), "ratio")

	delta := func(i int) float64 {
		return sampleFloat(after[i]) - sampleFloat(before[i])
	}
	cpuTotal, idle, gc := delta(0), delta(1), delta(2)
	out.set("cpu.idle_share", ratio(idle, cpuTotal), "ratio")
	out.set("sched.latency_p99_us", histQuantile(before[4], after[4], 0.99)*1e6, "us")
	out.set("gc.cpu_share", ratio(gc, cpuTotal-idle), "ratio")
	// The collection readRuntime forces at the end is not the workload's.
	out.set("gc.cycles", (delta(3)-1)/ops, "count")
	var allocN uint64
	for _, s := range traced {
		allocN += s.allocN
	}
	allocs := float64(allocN) / ops
	out.set("count.allocs", allocs, "count")

	counts := w.counts()
	for _, n := range countNames {
		unit := "count"
		if strings.HasPrefix(n, "ratio.") {
			unit = "ratio"
		}
		out.set(n, counts[n], unit)
	}
	frames := counts["count.link_frames"]
	out.set("ns_per_frame", ratio(float64(medianWall(plain)), frames), "ns")
	out.set("allocs_per_frame", ratio(allocs, frames), "count")
	out.set("span_ms.build", median(r.spans["build"]), "ms")
	for _, n := range append([]string{"register"}, figureNames...) {
		if len(r.spans[n]) > 0 {
			out.set("span_ms."+n, median(r.spans[n]), "ms")
		}
	}
	out.set("trace.overhead", ratio(float64(medianWall(traced)), float64(medianWall(plain))), "ratio")
	return out, nil
}

// selfTimes sums CPU samples (nanoseconds, the profile's second value) by
// the layer of their stack, in seconds, and returns the total too.
func selfTimes(samples []sample) (map[string]float64, float64) {
	self := map[string]float64{}
	var total float64
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		sec := float64(s.values[1]) / 1e9
		self[attribute(s.stack)] += sec
		total += sec
	}
	return self, total
}

// waitTimes sums block-profile delay (the second value, nanoseconds) by
// layer, in seconds. A goroutine joining others in WaitGroup.Wait is not
// waiting on the layer it sits in (the workers it waits for are busy), so
// those samples are left out.
func waitTimes(samples []sample) map[string]float64 {
	wait := map[string]float64{}
	for _, s := range samples {
		if len(s.values) < 2 || joins(s.stack) {
			continue
		}
		wait[attribute(s.stack)] += float64(s.values[1]) / 1e9
	}
	return wait
}

func joins(stack []frame) bool {
	for _, f := range stack {
		if f.fn == "sync.(*WaitGroup).Wait" {
			return true
		}
	}
	return false
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// histQuantile returns the q-quantile of the observations a runtime
// histogram gained between two samples, interpolating linearly inside the
// bucket it falls in (the open last bucket yields its lower bound).
func histQuantile(before, after metrics.Sample, q float64) float64 {
	if after.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	a := after.Value.Float64Histogram()
	var b *metrics.Float64Histogram
	if before.Value.Kind() == metrics.KindFloat64Histogram {
		b = before.Value.Float64Histogram()
	}
	counts := make([]float64, len(a.Counts))
	var n float64
	for i, c := range a.Counts {
		if b != nil && i < len(b.Counts) {
			c -= b.Counts[i]
		}
		counts[i] = float64(c)
		n += float64(c)
	}
	return bucketQuantile(a.Buckets, counts, q*n)
}

// bucketQuantile finds the rank-th observation in a histogram with the
// given bucket boundaries (len(counts)+1 of them).
func bucketQuantile(bounds, counts []float64, rank float64) float64 {
	var seen float64
	for i, c := range counts {
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		lo, hi := bounds[i], bounds[i+1]
		if math.IsInf(hi, 1) {
			return lo
		}
		if math.IsInf(lo, -1) {
			return hi
		}
		return lo + (hi-lo)*(rank-seen)/c
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianWall returns the median op wall time.
func medianWall(ops []opSample) time.Duration {
	walls := make([]float64, len(ops))
	for i, s := range ops {
		walls[i] = float64(s.wall)
	}
	return time.Duration(median(walls))
}

// workCounts turns summed registry counters for ops ops into the per-op
// count.* and ratio.* metrics. Scenario worlds have no fleet handoff
// counter; there every completed registration follows a move.
func workCounts(c map[string]uint64, ops float64) map[string]float64 {
	per := func(name string) float64 { return float64(c[name]) / ops }
	var drops uint64
	for name, v := range c {
		if strings.HasPrefix(name, "drop/") {
			drops += v
		}
	}
	handoffs := per("fleet/handoffs")
	if _, ok := c["fleet/handoffs"]; !ok {
		handoffs = per("mn/registrations")
	}
	regs, fails := per("mn/registrations"), per("mn/registration_fails")
	return map[string]float64{
		"count.registrations":      regs,
		"count.renewals":           per("mn/renewals"),
		"count.registration_fails": fails,
		"count.recovery_probes":    per("mn/recovery_probes"),
		"count.auth_rejects":       per("drop/auth_bad_mac") + per("drop/auth_replay") + per("drop/auth_stale_id"),
		"ratio.reg_success":        ratio(regs, regs+fails),
		"count.link_frames":        per("link/frames"),
		"count.link_bytes":         per("link/bytes"),
		"count.ip_forwarded":       per("ip/forwarded"),
		"count.ip_delivered":       per("ip/delivered"),
		"count.tunnel_encaps":      per("tunnel/encaps"),
		"count.tunnel_decaps":      per("tunnel/decaps"),
		"count.ha_forwarded":       per("ha/forwarded"),
		"count.handoffs":           handoffs,
		"count.moves":              per("mn/moves"),
		"count.drops":              float64(drops) / ops,
		"ratio.handoff_success":    ratio(handoffs, per("mn/moves")),
	}
}

// addCounters adds a snapshot's counters into sum (subtracting when sign
// is negative, for deltas).
func addCounters(sum map[string]uint64, s mmetrics.Snapshot, sign int) {
	for _, c := range s.Counters {
		if sign < 0 {
			sum[c.Name] -= c.Value
		} else {
			sum[c.Name] += c.Value
		}
	}
}
