package metrics

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mob4x4/internal/vtime"
)

// testSource is a Source reporting fixed counts and levels.
type testSource struct {
	counters map[string]uint64
	gauges   map[string]int64
}

func (s testSource) Report(a *Adder) {
	for _, name := range sortedKeys(s.counters) {
		a.Counter(name, s.counters[name])
	}
	for _, name := range sortedKeys(s.gauges) {
		a.Level(name, s.gauges[name])
	}
}

// gaugeOf returns the snapshot's level for name and whether it was present.
func gaugeOf(s Snapshot, name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// A gauge is a level read from a source's state; levels under one
	// name sum, negative contributions included.
	r := NewRegistry()
	r.AddSource(testSource{gauges: map[string]int64{"level": 7}})
	r.AddSource(testSource{gauges: map[string]int64{"level": -3}})
	if g, ok := gaugeOf(r.Snapshot(), "level"); !ok || g != 4 {
		t.Fatalf("gauge = %d,%v, want 4", g, ok)
	}
}

// TestSourcesSumByName: two sources reporting under one name are one
// series in the snapshot, and a zero count still makes its name appear.
func TestSourcesSumByName(t *testing.T) {
	r := NewRegistry()
	r.AddSource(testSource{counters: map[string]uint64{"ha/forwarded": 3, "ha/expiries": 0}})
	r.AddSource(testSource{counters: map[string]uint64{"ha/forwarded": 4}})
	s := r.Snapshot()
	if v, ok := s.Counter("ha/forwarded"); !ok || v != 7 {
		t.Fatalf("ha/forwarded = %d,%v, want 7", v, ok)
	}
	if v, ok := s.Counter("ha/expiries"); !ok || v != 0 {
		t.Fatalf("ha/expiries = %d,%v, want a present 0", v, ok)
	}
}

// TestNativeCounterAndSourceShareName: a registry-native named counter
// and a source's report under the same name sum.
func TestNativeCounterAndSourceShareName(t *testing.T) {
	r := NewRegistry()
	r.Counter("mn/moves").Add(2)
	r.AddSource(testSource{counters: map[string]uint64{"mn/moves": 5}})
	if v, ok := r.Snapshot().Counter("mn/moves"); !ok || v != 7 {
		t.Fatalf("mn/moves = %d,%v, want 7", v, ok)
	}
}

// TestMergeOfSourcesEqualsPushed: merging a registry whose counts live in
// sources gives the same snapshot as merging one whose counts were pushed
// into named counters, and the merged registry keeps the levels.
func TestMergeOfSourcesEqualsPushed(t *testing.T) {
	counts := map[string]uint64{"gfa/registrations": 9, "grid/out_pkts{Out-IE}": 4}
	sourced := NewRegistry()
	sourced.IPForwarded.Add(6)
	sourced.Drop(DropMTU)
	sourced.AddSource(testSource{counters: counts, gauges: map[string]int64{"gfa/bindings": 2}})
	pushed := NewRegistry()
	pushed.IPForwarded.Add(6)
	pushed.Drop(DropMTU)
	for name, v := range counts {
		pushed.Counter(name).Add(v)
	}
	fromSourced, fromPushed := NewRegistry(), NewRegistry()
	fromSourced.Merge(sourced)
	fromSourced.Merge(sourced)
	fromPushed.Merge(pushed)
	fromPushed.Merge(pushed)
	a, b := fromSourced.Snapshot(), fromPushed.Snapshot()
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Fatalf("merged counters differ:\nsources %+v\npushed  %+v", a.Counters, b.Counters)
	}
	if v, ok := a.Counter("grid/out_pkts{Out-IE}"); !ok || v != 8 {
		t.Fatalf("merged grid counter = %d,%v, want 8", v, ok)
	}
	if g, ok := gaugeOf(a, "gfa/bindings"); !ok || g != 4 {
		t.Fatalf("merged gfa/bindings = %d,%v, want 4", g, ok)
	}
	// A merge is a copy of the source's view: one merge snapshots equal
	// to the source registry itself.
	once := NewRegistry()
	once.Merge(sourced)
	if !bytes.Equal(once.Snapshot().JSON(), sourced.Snapshot().JSON()) {
		t.Fatal("a single merge must reproduce the source registry's snapshot")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1+10+11+100+101+5000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	want := []uint64{2, 2, 2} // <=10, <=100, overflow
	if !reflect.DeepEqual(h.counts, want) {
		t.Fatalf("buckets = %v, want %v", h.counts, want)
	}
}

func TestNamedInstrumentsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("Counter(name) must return the same instrument")
	}
	if r.Histogram("h", DefaultLatencyBuckets) != r.Histogram("h", nil) {
		t.Fatal("Histogram(name) must return the same instrument")
	}
}

func TestDropCauseNamesAndBounds(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < NumDropCauses; c++ {
		name := DropCause(c).String()
		if name == "" || name == "invalid" {
			t.Fatalf("cause %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate cause name %q", name)
		}
		seen[name] = true
	}
	if DropCause(-1).String() != "invalid" || DropCause(NumDropCauses).String() != "invalid" {
		t.Fatal("out-of-range causes must stringify as invalid")
	}
	r := NewRegistry()
	r.Drop(DropCause(99)) // out of range lands in the generic bucket
	if r.DropCount(DropFault) != 1 {
		t.Fatal("out-of-range drop must land in DropFault")
	}
	if r.DropCount(DropCause(99)) != 0 {
		t.Fatal("out-of-range DropCount must read 0")
	}
}

// TestAuthDropCauses pins the registration plane's three authentication
// rejection causes: their names are part of the metrics-dump format the
// determinism gate compares, and each rejection class must stay
// distinguishable end to end — counted apart, snapshot apart, merged
// apart.
func TestAuthDropCauses(t *testing.T) {
	causes := []struct {
		c    DropCause
		name string
	}{
		{DropAuthBadMAC, "auth_bad_mac"},
		{DropAuthReplay, "auth_replay"},
		{DropAuthStaleID, "auth_stale_id"},
	}
	r := NewRegistry()
	for i, tc := range causes {
		if got := tc.c.String(); got != tc.name {
			t.Errorf("cause %d stringifies as %q, want %q", tc.c, got, tc.name)
		}
		for j := 0; j <= i; j++ {
			r.Drop(tc.c)
		}
	}
	merged := NewRegistry()
	merged.Merge(r)
	merged.Merge(r)
	s := merged.Snapshot()
	for i, tc := range causes {
		if got := r.DropCount(tc.c); got != uint64(i+1) {
			t.Errorf("DropCount(%s) = %d, want %d", tc.name, got, i+1)
		}
		if got, ok := s.Counter("drop/" + tc.name); !ok || got != uint64(2*(i+1)) {
			t.Errorf("merged snapshot drop/%s = %d,%v, want %d", tc.name, got, ok, 2*(i+1))
		}
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.IPForwarded.Add(3)
		r.AddSource(testSource{
			counters: map[string]uint64{"grid/out_pkts{Out-DH}": 1, "grid/in_bytes{In-DE}": 40},
			gauges:   map[string]int64{"ha/bindings": 1},
		})
		r.Drop(DropBlackhole)
		r.Counter("mn/moves").Add(2)
		r.Histogram("mn/reg_rtt", DefaultLatencyBuckets).Observe(3e6)
		return r
	}
	s1, s2 := build().Snapshot(), build().Snapshot()
	if !bytes.Equal(s1.JSON(), s2.JSON()) {
		t.Fatal("identical registries must snapshot to identical JSON")
	}
	for i := 1; i < len(s1.Counters); i++ {
		if s1.Counters[i-1].Name >= s1.Counters[i].Name {
			t.Fatalf("counters not strictly sorted: %q >= %q", s1.Counters[i-1].Name, s1.Counters[i].Name)
		}
	}
	if v, ok := s1.Counter("ip/forwarded"); !ok || v != 3 {
		t.Fatalf("Counter lookup = %d,%v", v, ok)
	}
	if _, ok := s1.Counter("ip/sent"); ok {
		t.Fatal("zero static counter must be elided")
	}
	if v, ok := s1.Counter("grid/out_pkts{Out-DH}"); !ok || v != 1 {
		t.Fatalf("mode counter = %d,%v", v, ok)
	}
	if v, ok := s1.Counter("drop/blackhole"); !ok || v != 1 {
		t.Fatalf("drop counter = %d,%v", v, ok)
	}
	var txt strings.Builder
	if err := s1.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "mn/reg_rtt count=1 sum=3000000") {
		t.Fatalf("text dump missing histogram line:\n%s", txt.String())
	}
	if !strings.Contains(txt.String(), "ha/bindings 1") {
		t.Fatalf("text dump missing gauge line:\n%s", txt.String())
	}
}

func TestSamplerSeriesAndStop(t *testing.T) {
	sched := vtime.NewScheduler(1)
	r := NewRegistry()
	samp := NewSampler(sched, r, 10)
	sched.After(5, func() { r.IPSent.Inc() })
	sched.After(15, func() { r.IPSent.Inc() })
	sched.RunUntil(25)
	samp.Stop()
	sched.RunUntil(100)
	got := samp.Samples()
	if len(got) != 2 {
		t.Fatalf("samples = %d, want 2 (stop must cancel future samples)", len(got))
	}
	if got[0].At != 10 || got[1].At != 20 {
		t.Fatalf("sample times = %v, %v", got[0].At, got[1].At)
	}
	v0, _ := got[0].Snap.Counter("ip/sent")
	v1, _ := got[1].Snap.Counter("ip/sent")
	if v0 != 1 || v1 != 2 {
		t.Fatalf("sampled values = %d, %d, want 1, 2", v0, v1)
	}
	if sched.Pending() != 0 {
		t.Fatalf("stopped sampler left %d pending events", sched.Pending())
	}

	var tsv strings.Builder
	if err := WriteTSV(&tsv, got, "ip/sent", "absent"); err != nil {
		t.Fatal(err)
	}
	want := "vtime_ns\tip/sent\tabsent\n10\t1\t0\n20\t2\t0\n"
	if tsv.String() != want {
		t.Fatalf("tsv = %q, want %q", tsv.String(), want)
	}
}

func TestCollectorSortedByLabel(t *testing.T) {
	var c Collector
	rb := NewRegistry()
	rb.IPSent.Inc()
	ra := NewRegistry()
	ra.IPForwarded.Inc()
	c.Register("seed=2", rb)
	c.Register("seed=1", ra)
	c.Register("", nil) // nil registry is ignored
	snaps := c.Snapshots()
	if len(snaps) != 2 || snaps[0].Label != "seed=1" || snaps[1].Label != "seed=2" {
		t.Fatalf("snapshots out of order: %+v", snaps)
	}
	var txt strings.Builder
	if err := c.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "== seed=1 ==\nip/forwarded 1\n") {
		t.Fatalf("collector text dump:\n%s", txt.String())
	}
}
