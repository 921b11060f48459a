package encap

import (
	"bytes"
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/race"
)

// TestAppendEncapZeroAllocs pins the pooled tunnel path: wrapping an inner
// packet into a caller-provided buffer and unwrapping it in place must not
// allocate for any codec. This is what lets the mobile node, home agent and
// smart correspondent tunnel every packet through one recycled buffer.
func TestAppendEncapZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	inner := ipv4.Packet{
		Header: ipv4.Header{
			TTL:      ipv4.DefaultTTL,
			Protocol: ipv4.ProtoUDP,
			Src:      ipv4.AddrFrom(36, 1, 1, 3),
			Dst:      ipv4.AddrFrom(17, 5, 0, 2),
		},
		Payload: bytes.Repeat([]byte{0x5a}, 1000),
	}
	src := ipv4.AddrFrom(36, 22, 0, 5)
	dst := ipv4.AddrFrom(128, 9, 1, 4)
	for _, c := range All() {
		buf := make([]byte, 0, 2048)
		allocs := testing.AllocsPerRun(100, func() {
			outer, err := c.AppendEncap(inner, src, dst, ipv4.Zero, buf)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Decapsulate(outer)
			if err != nil {
				t.Fatal(err)
			}
			if got.Dst != inner.Dst || len(got.Payload) != len(inner.Payload) {
				t.Fatal("round trip mangled the inner packet")
			}
		})
		if allocs != 0 {
			t.Errorf("%s: AppendEncap+Decapsulate allocated %.1f times per run, want 0", c.Name(), allocs)
		}
	}
}
