package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// reference is a fixed computation, independent of the reproduction, that
// the benchmark times between ops to measure how fast the machine runs at
// that moment. The machine is shared: over minutes its speed drifts by a
// quarter or more as other tenants load its caches and memory, and the
// reproduction's wall times drift with it. The end-to-end times are divided
// by the slowness the reference measures, so they read as on a machine of
// reference speed; the wall times stay in the report lines.
//
// The kernels cover what the reproduction leans on: a register loop, random
// reads and writes over tables sized for the L2 cache, the last-level cache
// and DRAM, and a sort plus SHA-256. They allocate nothing on the Go heap
// (the tables are mapped outside it), so they move neither the collector
// nor the heap metrics.
type reference struct {
	l2, llc, dram []uint64
	ints          []int
	times         [nKernels][]float64 // ms per round, per kernel
	next          time.Time           // when the next round is due
}

const nKernels = 5

// kernels are the reference's parts, with their nominal times in ms: the
// medians measured on a quiet 2-vCPU Intel Xeon (Sapphire Rapids) guest,
// the machine the bounds in BENCHMARK.json were set on.
var kernels = [nKernels]struct {
	run     func(r *reference)
	nominal float64
}{
	{func(*reference) { spinRegisters(3_000_000) }, 4.4},
	{func(r *reference) { chase(r.l2, 1_000_000) }, 1.6},
	{func(r *reference) { chase(r.llc, 1_000_000) }, 3.3},
	{func(r *reference) { chase(r.dram, 300_000) }, 3.8},
	{func(r *reference) { r.sortHash() }, 1.6},
}

// roundEvery is how often measuring runs a round of the reference, between
// ops; a storm op, which is longer, is preceded by one each time.
const roundEvery = 500 * time.Millisecond

func newReference() (*reference, error) {
	r := &reference{}
	for _, t := range []struct {
		dst   *[]uint64
		words int
	}{{&r.l2, 32 << 10}, {&r.llc, 256 << 10}, {&r.dram, 4 << 20}} {
		w, err := mapWords(t.words)
		if err != nil {
			return nil, err
		}
		*t.dst = w
	}
	w, err := mapWords(20_000)
	if err != nil {
		return nil, err
	}
	r.ints = unsafe.Slice((*int)(unsafe.Pointer(&w[0])), len(w))
	for _, k := range kernels { // fault the pages in, untimed
		k.run(r)
	}
	return r, nil
}

// mapWords maps n zeroed words of anonymous memory outside the Go heap. The
// mapping lives as long as the process.
func mapWords(n int) ([]uint64, error) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map reference table: %w", err)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), nil
}

// round times each kernel once.
func (r *reference) round() {
	for i, k := range kernels {
		t0 := time.Now()
		k.run(r)
		r.times[i] = append(r.times[i], ms(time.Since(t0)))
	}
	r.next = time.Now().Add(roundEvery)
}

// due runs a round if one is due.
func (r *reference) due() {
	if !time.Now().Before(r.next) {
		r.round()
	}
}

// slowness is the geometric mean over the kernels of median time over
// nominal time: 1 on a machine of reference speed, 1.25 on one that runs
// the reference a quarter slower.
func (r *reference) slowness() float64 {
	var logs float64
	for i, k := range kernels {
		logs += math.Log(median(r.times[i]) / k.nominal)
	}
	return math.Exp(logs / float64(len(kernels)))
}

var refSink uint64

//go:noinline
func spinRegisters(n int) {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	refSink += x
}

// chase makes n read-modify-writes at pseudo-random places in t, whose
// length is a power of two.
func chase(t []uint64, n int) {
	x, mask := uint64(1), uint64(len(t)-1)
	var s uint64
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 20) & mask
		s += t[j]
		t[j] = s
	}
	refSink += s
}

// sortHash sorts pseudo-random ints and hashes 64 KiB.
func (r *reference) sortHash() {
	x := uint32(7)
	for i := range r.ints {
		x = x*1664525 + 1013904223
		r.ints[i] = int(x)
	}
	sort.Ints(r.ints)
	sum := sha256.Sum256(unsafe.Slice((*byte)(unsafe.Pointer(&r.l2[0])), 64<<10))
	refSink += uint64(sum[0])
}
