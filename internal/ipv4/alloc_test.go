package ipv4

import (
	"bytes"
	"testing"

	"mob4x4/internal/race"
)

// TestAppendMarshalZeroAllocs pins the append-style codec to zero
// allocations when the destination buffer has capacity — the property the
// netsim frame pool depends on for the steady-state fast path.
func TestAppendMarshalZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	pkt := Packet{
		Header: Header{
			TOS:      0x10,
			ID:       0x1234,
			TTL:      DefaultTTL,
			Protocol: ProtoUDP,
			Src:      AddrFrom(36, 22, 0, 5),
			Dst:      AddrFrom(128, 9, 1, 4),
			Options:  []byte{1, 1, 1, 1},
		},
		Payload: bytes.Repeat([]byte{0xa5}, 1400),
	}
	buf := make([]byte, 0, 2048)
	allocs := testing.AllocsPerRun(100, func() {
		b, err := pkt.AppendMarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != pkt.TotalLen() {
			t.Fatalf("marshalled %d bytes, want %d", len(b), pkt.TotalLen())
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendMarshal into a sized buffer allocated %.1f times per run, want 0", allocs)
	}
}

// TestAppendFragmentsZeroAllocs pins fragmentation into caller storage at
// zero allocations: the fragments alias the packet's payload, and a dst
// with room for them (a stack array in the stack's transmit path) is all
// the storage they need.
func TestAppendFragmentsZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	p := bigPacket(1500) // an IPIP-encapsulated 1472-byte UDP echo
	var store [4]Packet
	allocs := testing.AllocsPerRun(100, func() {
		frags, err := AppendFragments(store[:0], p, 1500)
		if err != nil {
			t.Fatal(err)
		}
		if len(frags) != 2 {
			t.Fatalf("got %d fragments, want 2", len(frags))
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendFragments into a sized dst allocated %.1f times per run, want 0", allocs)
	}
}

// TestReassembleZeroAllocs pins a long-lived reassembler at zero
// allocations per packet once warm: completed packets handed back with
// Release and contexts discarded by Expire are reused, assembly buffer
// and span list included.
func TestReassembleZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	p := bigPacket(1500)
	frags, _ := AppendFragments(nil, p, 1500)
	lost := p
	lost.ID++
	lostFrags, _ := AppendFragments(nil, lost, 1500)
	r := NewReassembler()
	run := func() {
		// One packet whose tail is lost, reaped by a timeout tick...
		if _, done, _ := r.Add(lostFrags[0]); done {
			t.Fatal("completed without the last fragment")
		}
		r.Expire()
		// ...and one that completes, tail first.
		for i := len(frags) - 1; i >= 0; i-- {
			out, done, err := r.Add(frags[i])
			if err != nil {
				t.Fatal(err)
			}
			if done != (i == 0) {
				t.Fatalf("done = %v after fragment %d", done, i)
			}
			if done && !bytes.Equal(out.Payload, p.Payload) {
				t.Fatal("reassembled payload differs")
			}
		}
		r.Release()
	}
	for i := 0; i < 4; i++ {
		run() // grow the free list's buffers to this packet size
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state reassembly allocated %.1f times per packet, want 0", allocs)
	}
}
