package pcap_test

import (
	"testing"

	"mob4x4/internal/pcap"
)

// BenchmarkWritePacket measures the per-frame cost of the capture plane:
// one packet-header encode plus the layer copies. This is the price every
// transmitted frame pays while a capture is attached; with no tracer
// hook the datapath pays nothing (the 0 allocs/op steady-state
// benchmarks in netsim/stack run untraced and gate that half of the
// contract).
func BenchmarkWritePacket(b *testing.B) {
	hdr := make([]byte, 14)
	payload := make([]byte, 60)
	w := pcap.NewWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh writer every 64k packets bounds the capture buffer;
		// the allocation amortizes to nothing against the copies.
		if i%65536 == 0 {
			w = pcap.NewWriter()
		}
		w.WritePacket(int64(i)*1000, hdr, payload)
	}
}
