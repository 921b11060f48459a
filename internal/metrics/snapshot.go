package metrics

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"mob4x4/internal/assert"
)

// CounterSample is one counter at snapshot time.
type CounterSample struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSample is one gauge at snapshot time.
type GaugeSample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSample is one histogram at snapshot time. Buckets holds
// cumulative-style per-bucket counts aligned with Bounds plus a final
// overflow entry.
type HistogramSample struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Bounds  []int64  `json:"bounds"`
	Buckets []uint64 `json:"buckets"`
}

// Snapshot is a point-in-time copy of a registry, sorted by name so that
// two identical registries always serialize to identical bytes. Static
// families appear under stable slash-separated names ("ip/forwarded",
// "drop/blackhole"); zero-valued static counters are elided to keep dumps
// readable, while named instruments and source reports always appear
// (their existence is itself a signal the subsystem ran). A source may
// still leave a zero count out: the mobile node reports its
// "grid/out_pkts{Out-IE}"-style cells only when they are nonzero.
type Snapshot struct {
	Counters   []CounterSample   `json:"counters"`
	Gauges     []GaugeSample     `json:"gauges,omitempty"`
	Histograms []HistogramSample `json:"histograms,omitempty"`
}

func appendStatic(dst []CounterSample, name string, c *Counter) []CounterSample {
	if v := c.Value(); v != 0 {
		dst = append(dst, CounterSample{Name: name, Value: v})
	}
	return dst
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot

	s.Counters = appendStatic(s.Counters, "ip/sent", &r.IPSent)
	s.Counters = appendStatic(s.Counters, "ip/forwarded", &r.IPForwarded)
	s.Counters = appendStatic(s.Counters, "ip/delivered", &r.IPDelivered)
	s.Counters = appendStatic(s.Counters, "link/frames", &r.LinkFrames)
	s.Counters = appendStatic(s.Counters, "link/bytes", &r.LinkBytes)
	s.Counters = appendStatic(s.Counters, "tunnel/encaps", &r.Encaps)
	s.Counters = appendStatic(s.Counters, "tunnel/decaps", &r.Decaps)
	s.Counters = appendStatic(s.Counters, "tunnel/forwards", &r.TunnelForwards)
	for c := 0; c < NumDropCauses; c++ {
		s.Counters = appendStatic(s.Counters, "drop/"+DropCause(c).String(), &r.drops[c])
	}
	named := r.named()
	for name, v := range named.counters {
		s.Counters = append(s.Counters, CounterSample{Name: name, Value: v})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })

	for name, v := range named.levels {
		s.Gauges = append(s.Gauges, GaugeSample{Name: name, Value: v})
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })

	for name, h := range r.histograms {
		hs := HistogramSample{
			Name:    name,
			Count:   h.Count(),
			Sum:     h.Sum(),
			Bounds:  append([]int64(nil), h.bounds...),
			Buckets: append([]uint64(nil), h.counts...),
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })

	return s
}

// Counter returns the sampled value for name and whether it was present.
func (s Snapshot) Counter(name string) (uint64, bool) {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value, true
	}
	return 0, false
}

// JSON renders the snapshot as indented, deterministic JSON.
func (s Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	// Snapshot contains only integers, strings and slices; Marshal
	// cannot fail on it.
	assert.NoError(err, "metrics: snapshot marshal")
	return append(b, '\n')
}

// WriteText renders a line-oriented dump: "name value" for counters and
// gauges, "name count=N sum=S" for histograms. Deterministic.
func (s Snapshot) WriteText(w io.Writer) error {
	var buf []byte
	for _, c := range s.Counters {
		buf = buf[:0]
		buf = append(buf, c.Name...)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, c.Value, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		buf = buf[:0]
		buf = append(buf, g.Name...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, g.Value, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		buf = buf[:0]
		buf = append(buf, h.Name...)
		buf = append(buf, " count="...)
		buf = strconv.AppendUint(buf, h.Count, 10)
		buf = append(buf, " sum="...)
		buf = strconv.AppendInt(buf, h.Sum, 10)
		for i, n := range h.Buckets {
			buf = append(buf, " le:"...)
			if i < len(h.Bounds) {
				buf = strconv.AppendInt(buf, h.Bounds[i], 10)
			} else {
				buf = append(buf, "+inf"...)
			}
			buf = append(buf, '=')
			buf = strconv.AppendUint(buf, n, 10)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
