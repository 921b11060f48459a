package metrics

import (
	"io"
	"strconv"

	"mob4x4/internal/vtime"
)

// Sample is one periodic observation of a registry.
type Sample struct {
	At   vtime.Time `json:"at"`
	Snap Snapshot   `json:"snapshot"`
}

// Sampler snapshots a registry at a fixed virtual-time period, producing
// a time series for experiments that want trajectory rather than totals
// (the chaos run samples every 2s of vtime). It is driven entirely by
// the simulation scheduler: samples are taken at deterministic instants
// and the series is identical across runs and worker counts.
type Sampler struct {
	reg     *Registry
	every   vtime.Duration
	timer   *vtime.Timer
	samples []Sample
}

// NewSampler starts sampling reg every period (first sample one period
// in). Call Stop before draining the scheduler, or the rearming timer
// keeps the event queue non-empty forever.
func NewSampler(sched *vtime.Scheduler, reg *Registry, every vtime.Duration) *Sampler {
	s := &Sampler{reg: reg, every: every}
	s.timer = vtime.NewTimer(func() {
		s.samples = append(s.samples, Sample{At: sched.Now(), Snap: reg.Snapshot()})
		s.timer.Reset(sched, every)
	})
	s.timer.Reset(sched, every)
	return s
}

// Stop cancels future samples; already-captured samples remain.
func (s *Sampler) Stop() { s.timer.Stop() }

// Samples returns the captured series in time order.
func (s *Sampler) Samples() []Sample { return s.samples }

// WriteTSV renders the series as a tab-separated table: one row per
// sample, one column per requested counter name (missing counters read
// 0), with a vtime_ns first column. Deterministic.
func WriteTSV(w io.Writer, series []Sample, names ...string) error {
	var buf []byte
	buf = append(buf, "vtime_ns"...)
	for _, n := range names {
		buf = append(buf, '\t')
		buf = append(buf, n...)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, smp := range series {
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(smp.At), 10)
		for _, n := range names {
			v, _ := smp.Snap.Counter(n)
			buf = append(buf, '\t')
			buf = strconv.AppendUint(buf, v, 10)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
