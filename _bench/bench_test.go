package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"mob4x4/internal/stack.(*Host).forward":                                    "mob4x4/internal/stack",
		"mob4x4/internal/stack.(*Host).ensureUDPDemux.func1":                       "mob4x4/internal/stack",
		"mob4x4/internal/vtime.(*Group).RunUntil.func1":                            "mob4x4/internal/vtime",
		"crypto/sha256.block":                                                      "crypto/sha256",
		"crypto/internal/fips140/sha256.blockAMD64":                                "crypto/internal/fips140/sha256",
		"runtime.mallocgc":                                                         "runtime",
		"math/rand.(*rngSource).Seed":                                              "math/rand",
		"sync.(*Cond).Wait":                                                        "sync",
		"main.(*stream).onEcho":                                                    "main",
		"slices.SortFunc[go.shape.[]mob4x4/internal/ipv4.Addr,go.shape.struct {}]": "slices",
		"mob4x4/internal/metrics.(*Registry).Counter":                              "mob4x4/internal/metrics",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttribute(t *testing.T) {
	f := func(fn, file string) frame { return frame{fn: fn, file: file} }
	const nsim = "/src/internal/netsim/"
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{"method", []frame{f("mob4x4/internal/ipv4.(*Header).AppendMarshal", "ipv4.go")}, layerIPv4},
		{"closure", []frame{f("mob4x4/internal/stack.(*Host).ensureUDPDemux.func1", "udpsock.go")}, layerStack},
		{"transport package", []frame{f("mob4x4/internal/tcplite.(*Conn).input", "conn.go")}, layerTransport},
		{"netsim segment", []frame{f("mob4x4/internal/netsim.(*Segment).deliver", nsim+"netsim.go")}, layerSegment},
		{"netsim trace", []frame{f("mob4x4/internal/netsim.(*Tracer).record", nsim+"trace.go")}, layerTrace},
		{"sha256 block", []frame{
			f("crypto/sha256.block", "sha256block.go"),
			f("mob4x4/internal/mobileip.(*authenticator).sign", "auth.go")}, layerCrypto},
		{"fips sha256 under hmac", []frame{
			f("crypto/internal/fips140/sha256.blockAMD64", "sha256block_amd64.go"),
			f("crypto/hmac.(*hmac).Sum", "hmac.go")}, layerCrypto},
		{"malloc under ipv4", []frame{
			f("runtime.nextFreeFast", "malloc.go"),
			f("runtime.mallocgc", "malloc.go"),
			f("mob4x4/internal/ipv4.Reassemble", "frag.go")}, layerMalloc},
		{"mallocgc decides for its helpers", []frame{
			f("runtime.memclrNoHeapPointers", "memclr_amd64.s"),
			f("runtime.mallocgc", "malloc.go"),
			f("mob4x4/internal/inet.(*Network).AddLAN", "inet.go")}, layerMalloc},
		{"gc assist inside malloc", []frame{
			f("runtime.scanobject", "mgcmark.go"),
			f("runtime.gcDrainN", "mgcmark.go"),
			f("runtime.gcAssistAlloc", "mgcmark.go"),
			f("runtime.mallocgc", "malloc.go"),
			f("mob4x4/internal/stack.(*Host).output", "ip.go")}, layerGC},
		{"background mark worker", []frame{
			f("runtime.scanobject", "mgcmark.go"),
			f("runtime.gcDrain", "mgcmark.go"),
			f("runtime.gcBgMarkWorker.func2", "mgc.go"),
			f("runtime.systemstack", "asm_amd64.s")}, layerGC},
		{"runtime helper belongs to caller", []frame{
			f("runtime.memmove", "memmove_amd64.s"),
			f("mob4x4/internal/encap.AppendEncap", "encap.go")}, layerEncap},
		{"stdlib helper belongs to caller", []frame{
			f("sort.insertionSort", "zsortinterface.go"),
			f("sort.Sort", "sort.go"),
			f("mob4x4/internal/inet.(*Network).ComputeRoutes", "inet.go")}, layerInet},
		{"rand stream seeding", []frame{
			f("math/rand.seedrand", "rng.go"),
			f("math/rand.(*rngSource).Seed", "rng.go"),
			f("mob4x4/internal/vtime.(*Scheduler).NewStream", "vtime.go")}, layerRand},
		{"scheduler", []frame{
			f("runtime.futex", "os_linux.go"),
			f("runtime.notesleep", "lock_futex.go"),
			f("runtime.stopm", "proc.go"),
			f("runtime.findRunnable", "proc.go"),
			f("runtime.schedule", "proc.go")}, layerSched},
		{"parked vtime worker", []frame{
			f("sync.runtime_notifyListWait", "sema.go"),
			f("sync.(*Cond).Wait", "cond.go"),
			f("mob4x4/internal/vtime.(*Group).worker", "shard.go")}, layerVtime},
		{"scenario", []frame{f("mob4x4/internal/fleet.(*Fleet).hop", "fleet.go")}, layerScenario},
		{"route optimization is mobility", []frame{f("mob4x4/internal/routeopt.(*Updater).push", "updater.go")}, layerMobileIP},
		{"benchmark code", []frame{f("main.(*stream).onEcho", "stream.go")}, layerOther},
		{"unknown stdlib only", []frame{f("strconv.Itoa", "itoa.go")}, layerOther},
		{"runtime only, unclassified", []frame{f("runtime.memmove", "memmove_amd64.s")}, layerSched},
		{"empty", nil, layerOther},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestAttributeKnowsEveryLayer keeps allLayers and the classifier in step.
func TestAttributeKnowsEveryLayer(t *testing.T) {
	known := map[string]bool{}
	for _, l := range allLayers {
		known[l] = true
	}
	for pkg, l := range modulePackages {
		if !known[l] {
			t.Errorf("package %s maps to %q, which is not in allLayers", pkg, l)
		}
	}
	for _, c := range runtimeClasses {
		if !known[c.layer] {
			t.Errorf("runtime class %q is not in allLayers", c.layer)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{99, 0, false},
		{100, 90, true}, // rank 90, ten beyond
		{109, 90, true},
		{999, 90, true}, // p99 has rank 990 and leaves only 9 beyond
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - rank(p, c.n); beyond < 10 {
				t.Errorf("tailPercentile(%d) = p%v leaves %d samples beyond it", c.n, p, beyond)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	if got := median(s); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(s, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
}

func TestLedger(t *testing.T) {
	var l ledger
	if l.errorRate() != 0 {
		t.Fatalf("empty ledger error rate %v, want 0", l.errorRate())
	}
	l.record(nil)
	l.record([]string{"a", "b"}) // two problems, one failed op
	l.record(nil)
	l.record([]string{"c"})
	if l.attempted != 4 || l.failed != 2 {
		t.Fatalf("attempted/failed = %d/%d, want 4/2", l.attempted, l.failed)
	}
	if got := l.errorRate(); got != 0.5 {
		t.Errorf("error rate = %v, want 0.5", got)
	}
	if !reflect.DeepEqual(l.problems, []string{"a", "b", "c"}) {
		t.Errorf("problems = %q", l.problems)
	}
	for i := 0; i < 10; i++ {
		l.record([]string{"more"})
	}
	if len(l.problems) != keepProblems {
		t.Errorf("kept %d problems, want %d", len(l.problems), keepProblems)
	}
	if l.attempted != 14 || l.failed != 12 {
		t.Errorf("attempted/failed = %d/%d, want 14/12", l.attempted, l.failed)
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{math.Inf(-1), 0, 10, 20, math.Inf(1)}
	counts := []float64{0, 10, 10, 5}
	for _, c := range []struct{ rank, want float64 }{
		{5, 5}, {10, 10}, {15, 15}, {20, 20}, {21, 20}, {25, 20},
	} {
		if got := bucketQuantile(bounds, counts, c.rank); got != c.want {
			t.Errorf("rank %v: got %v, want %v", c.rank, got, c.want)
		}
	}
}

func TestWorkCounts(t *testing.T) {
	c := map[string]uint64{
		"mn/registrations": 20, "mn/registration_fails": 5, "mn/moves": 40, "fleet/handoffs": 30,
		"drop/down": 3, "drop/auth_replay": 2, "link/frames": 100,
	}
	got := workCounts(c, 2)
	want := map[string]float64{
		"count.registrations": 10, "ratio.reg_success": 0.8, "count.handoffs": 15,
		"ratio.handoff_success": 0.75, "count.drops": 2.5, "count.auth_rejects": 1, "count.link_frames": 50,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	delete(c, "fleet/handoffs")
	if got := workCounts(c, 1)["count.handoffs"]; got != 20 {
		t.Errorf("handoffs without a fleet counter = %v, want the registrations (20)", got)
	}
	for _, n := range countNames {
		if _, ok := got[n]; !ok {
			t.Errorf("workCounts lacks %s", n)
		}
	}
}

// TestParseProfile round-trips a real CPU profile: the samples parse, and
// time spent in a function of this package is attributed to it.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if len(s.values) != 2 {
			t.Fatalf("cpu sample has %d values, want 2", len(s.values))
		}
		for _, f := range s.stack {
			if f.fn == "mob4x4/bench.spin" || f.fn == "main.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample in spin among %d samples", len(samples))
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated protobuf parsed without error")
	}
}

//go:noinline
func spin(d time.Duration) {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x += i
		}
	}
	runtime.KeepAlive(x)
}

// TestReference checks that a round of the reference allocates nothing on
// the Go heap, so it cannot move the heap metrics or the collector, and
// that slowness reads 1 at the nominal times and scales with them.
func TestReference(t *testing.T) {
	r, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.times { // room for the rounds, so appends do not allocate
		r.times[i] = make([]float64, 0, 8)
	}
	if n := testing.AllocsPerRun(3, r.round); n != 0 {
		t.Errorf("a reference round allocates %v times", n)
	}
	for i, k := range kernels {
		r.times[i] = []float64{k.nominal, 1.5 * k.nominal, 1.5 * k.nominal}
	}
	if got := r.slowness(); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("slowness at 1.5x nominal = %v, want 1.5", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric lists in
// step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEndNames) {
		t.Errorf("end_to_end = %q, program reports %q", got, endToEndNames)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayerNames()) {
		t.Errorf("per_layer = %q, program reports %q", got, perLayerNames())
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why differs from the program's", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloadWhy) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadWhy))
	}
}
