package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"mob4x4/internal/experiments"
	"mob4x4/internal/ipv4"
	mmetrics "mob4x4/internal/metrics"
	"mob4x4/internal/stack"
	"mob4x4/internal/vtime"
)

const (
	echoPort    = 7
	echoWindow  = 8    // echoes in flight: a closed loop of this many clients
	echoesPerOp = 1000 // half at each payload size
)

// payloadSizes are the UDP payloads an op echoes: a small packet, and the
// largest that fits a 1500-byte link plain, which the tunnel must fragment.
var payloadSizes = []int{64, 1472}

// stream is the stream workload: closed-loop UDP echoes from the far
// correspondent to the mobile node's home address, through the home
// agent's tunnel to the care-of address, and back.
type stream struct {
	seed    int64
	pattern []byte // payload bytes, from the seed; the first 4 carry the sequence number
	buf     []byte

	s      *experiments.Scenario
	client *stack.UDPSocket
	home   ipv4.Addr
	base   mmetrics.Snapshot // registry at the end of set-up
	ops    int
	rates  map[int][]float64 // echoes per wall second, per payload size

	// The burst in progress.
	size     int
	next     uint32 // next sequence number to send
	toSend   int
	received int
	pending  map[uint32]bool
	bad      []string
}

func newStream(seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	st := &stream{
		seed:    1 + rng.Int63n(1<<30),
		pattern: make([]byte, payloadSizes[len(payloadSizes)-1]),
		buf:     make([]byte, payloadSizes[len(payloadSizes)-1]),
		pending: map[uint32]bool{},
		rates:   map[int][]float64{},
	}
	rng.Read(st.pattern)
	return st
}

func (st *stream) minOps() int  { return 10 }
func (st *stream) workers() int { return 1 }

// setup builds and registers Figure-1 worlds (see buildWorlds), opening the
// echo sockets on each; the last world carries the ops.
func (st *stream) setup(r *recorder) error {
	if err := buildWorlds(r, []int64{st.seed}, st.open); err != nil {
		return err
	}
	st.base = st.s.Net.Sim.Metrics.Snapshot()
	r.heapMB = append(r.heapMB, liveHeapMB())
	return nil
}

// open installs the echo server on the mobile node and the client on the
// far correspondent of s, and makes s the current world.
func (st *stream) open(s *experiments.Scenario) error {
	var echo *stack.UDPSocket
	echo, err := s.MHHost.OpenUDP(ipv4.Zero, echoPort, func(src ipv4.Addr, srcPort uint16, _ ipv4.Addr, payload []byte) {
		// A failed send shows up as a missing echo.
		_ = echo.SendTo(src, srcPort, payload)
	})
	if err != nil {
		return fmt.Errorf("open echo server: %w", err)
	}
	client, err := s.CHFar.OpenUDP(ipv4.Zero, 0, st.onEcho)
	if err != nil {
		return fmt.Errorf("open echo client: %w", err)
	}
	st.s, st.client, st.home = s, client, s.MN.Home()
	return nil
}

func (st *stream) op(r *recorder) opSample {
	st.bad = st.bad[:0]
	var total opSample
	for _, size := range payloadSizes {
		n := echoesPerOp / len(payloadSizes)
		s := timed(func() { st.burst(size, n) })
		total.add(s)
		st.rates[size] = append(st.rates[size], float64(n)/s.wall.Seconds())
	}
	st.ops++
	total.problems = append(total.problems, st.bad...)
	return total
}

// burst runs n echoes of the given payload size with echoWindow in
// flight, and notes every echo that is missing or wrong.
func (st *stream) burst(size, n int) {
	st.size, st.toSend, st.received = size, n, 0
	for i := 0; i < echoWindow && st.toSend > 0; i++ {
		st.send()
	}
	deadline := st.s.Net.Sim.Now().Add(60 * experiments.Second)
	for st.received < n && st.s.Net.Sim.Now().Before(deadline) {
		st.s.Net.RunFor(50 * vtime.Duration(1e6))
	}
	if st.received < n {
		st.bad = append(st.bad, fmt.Sprintf("%d of %d echoes of %d B never came back", n-st.received, n, size))
		clear(st.pending)
	}
}

func (st *stream) send() {
	p := st.buf[:st.size]
	copy(p, st.pattern)
	binary.BigEndian.PutUint32(p, st.next)
	st.pending[st.next] = true
	st.next++
	st.toSend--
	if err := st.client.SendTo(st.home, echoPort, p); err != nil {
		st.bad = append(st.bad, "send: "+err.Error())
	}
}

// onEcho checks one echo and, closing the loop, sends the next request.
func (st *stream) onEcho(src ipv4.Addr, srcPort uint16, _ ipv4.Addr, payload []byte) {
	switch {
	case src != st.home || srcPort != echoPort:
		st.bad = append(st.bad, fmt.Sprintf("echo from %s:%d, want %s:%d", src, srcPort, st.home, echoPort))
	case len(payload) != st.size:
		st.bad = append(st.bad, fmt.Sprintf("echo of %d B, want %d B", len(payload), st.size))
	case !st.pending[binary.BigEndian.Uint32(payload)]:
		st.bad = append(st.bad, fmt.Sprintf("unexpected echo sequence %d", binary.BigEndian.Uint32(payload)))
	case !bytes.Equal(payload[4:], st.pattern[4:st.size]):
		st.bad = append(st.bad, "echo payload corrupted")
	default:
		delete(st.pending, binary.BigEndian.Uint32(payload))
		st.received++
	}
	if st.toSend > 0 {
		st.send()
	}
}

func (st *stream) counts() map[string]float64 {
	sum := map[string]uint64{}
	addCounters(sum, st.s.Net.Sim.Metrics.Snapshot(), 1)
	addCounters(sum, st.base, -1)
	return workCounts(sum, float64(st.ops))
}

func (st *stream) report(out *metricSet, _ []opSample) {
	for _, size := range payloadSizes {
		out.set(fmt.Sprintf("echo_per_s.%d", size), median(st.rates[size]), "1/s")
	}
}
