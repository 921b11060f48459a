package ipv4

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func bigPacket(n int) Packet {
	p := Packet{
		Header: Header{
			TTL: 64, Protocol: ProtoUDP, ID: 42,
			Src: MustParseAddr("10.0.0.1"), Dst: MustParseAddr("10.0.0.2"),
		},
		Payload: make([]byte, n),
	}
	for i := range p.Payload {
		p.Payload[i] = byte(i)
	}
	return p
}

func TestFragmentFits(t *testing.T) {
	p := bigPacket(100)
	frags, err := AppendFragments(nil, p, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 {
		t.Fatalf("got %d fragments, want 1", len(frags))
	}
}

func TestFragmentSplits(t *testing.T) {
	p := bigPacket(3000)
	frags, err := AppendFragments(nil, p, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("got %d fragments, want 3", len(frags))
	}
	total := 0
	for i, f := range frags {
		if f.TotalLen() > 1500 {
			t.Errorf("fragment %d exceeds MTU: %d", i, f.TotalLen())
		}
		if i < len(frags)-1 && !f.MoreFrags {
			t.Errorf("fragment %d missing MF", i)
		}
		if i == len(frags)-1 && f.MoreFrags {
			t.Error("last fragment has MF set")
		}
		if int(f.FragOffset)*8 != total {
			t.Errorf("fragment %d offset %d, want %d", i, int(f.FragOffset)*8, total)
		}
		total += len(f.Payload)
	}
	if total != 3000 {
		t.Errorf("payload bytes = %d, want 3000", total)
	}
}

func TestFragmentDFRejected(t *testing.T) {
	p := bigPacket(3000)
	p.DontFrag = true
	if _, err := AppendFragments(nil, p, 1500); err != ErrFragNeeded {
		t.Errorf("err = %v, want ErrFragNeeded", err)
	}
	// DF packet that fits is fine.
	p.Payload = p.Payload[:100]
	if _, err := AppendFragments(nil, p, 1500); err != nil {
		t.Errorf("DF packet that fits rejected: %v", err)
	}
}

func TestFragmentTinyMTU(t *testing.T) {
	p := bigPacket(100)
	if _, err := AppendFragments(nil, p, 20); err == nil {
		t.Error("mtu 20 accepted")
	}
	frags, err := AppendFragments(nil, p, 28) // room for exactly 8 payload bytes
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 13 { // ceil(100/8)
		t.Errorf("got %d fragments, want 13", len(frags))
	}
}

func TestAppendFragmentsAppends(t *testing.T) {
	// Fragments go after what dst already holds; an error leaves dst as
	// it was.
	keep := bigPacket(10)
	dst := []Packet{keep}
	dst, err := AppendFragments(dst, bigPacket(3000), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 4 || len(dst[0].Payload) != 10 || dst[1].FragOffset != 0 || !dst[1].MoreFrags {
		t.Fatalf("got %d packets (first %d bytes), want the kept packet then 3 fragments", len(dst), len(dst[0].Payload))
	}
	df := bigPacket(3000)
	df.DontFrag = true
	if got, err := AppendFragments(dst, df, 1500); err != ErrFragNeeded || len(got) != 4 {
		t.Errorf("DF packet: %d packets, err %v; want dst unchanged and ErrFragNeeded", len(got), err)
	}
}

func TestReassembleInOrder(t *testing.T) {
	p := bigPacket(5000)
	frags, _ := AppendFragments(nil, p, 1500)
	r := NewReassembler()
	for i, f := range frags {
		out, done, err := r.Add(f)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(frags)-1 && done {
			t.Fatal("reassembly finished early")
		}
		if i == len(frags)-1 {
			if !done {
				t.Fatal("reassembly did not finish")
			}
			if !bytes.Equal(out.Payload, p.Payload) {
				t.Error("reassembled payload differs")
			}
			if out.MoreFrags || out.FragOffset != 0 {
				t.Error("reassembled packet still marked fragmented")
			}
		}
	}
	if r.Pending() != 0 {
		t.Errorf("pending contexts = %d", r.Pending())
	}
}

func TestReassembleOutOfOrderAndDuplicates(t *testing.T) {
	p := bigPacket(5000)
	frags, _ := AppendFragments(nil, p, 1500)
	rng := rand.New(rand.NewSource(3))
	order := rng.Perm(len(frags))
	r := NewReassembler()
	var out Packet
	var done bool
	var err error
	for _, idx := range order {
		// Feed each fragment twice; duplicates must be ignored.
		_, _, _ = r.Add(frags[idx])
		out, done, err = r.Add(frags[idx])
		if err != nil {
			t.Fatal(err)
		}
	}
	// The last Add of the permutation may or may not complete it
	// (duplicate after completion starts a fresh context); feed all
	// again to be sure.
	if !done {
		for _, f := range frags {
			out, done, err = r.Add(f)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
	}
	if !done {
		t.Fatal("never completed")
	}
	if !bytes.Equal(out.Payload, p.Payload) {
		t.Error("payload differs after out-of-order reassembly")
	}
}

func TestReassembleDistinctContexts(t *testing.T) {
	// Two packets with different IDs interleaved must not mix.
	a := bigPacket(3000)
	b := bigPacket(3000)
	b.ID = 43
	for i := range b.Payload {
		b.Payload[i] = byte(i * 7)
	}
	fa, _ := AppendFragments(nil, a, 1500)
	fb, _ := AppendFragments(nil, b, 1500)
	r := NewReassembler()
	var gotA, gotB Packet
	var doneA, doneB bool
	for i := range fa {
		if out, done, _ := r.Add(fa[i]); done {
			gotA, doneA = out, true
		}
		if out, done, _ := r.Add(fb[i]); done {
			gotB, doneB = out, true
		}
	}
	if !doneA || !doneB {
		t.Fatal("one of the contexts never completed")
	}
	if !bytes.Equal(gotA.Payload, a.Payload) || !bytes.Equal(gotB.Payload, b.Payload) {
		t.Error("contexts mixed payloads")
	}
}

func TestReassembleExpire(t *testing.T) {
	p := bigPacket(3000)
	frags, _ := AppendFragments(nil, p, 1500)
	r := NewReassembler()
	_, _, _ = r.Add(frags[0])
	if n := r.Expire(); n != 1 {
		t.Errorf("Expire = %d, want 1", n)
	}
	if r.Drops != 1 {
		t.Errorf("Drops = %d, want 1", r.Drops)
	}
	// After expiry the remaining fragments never complete.
	done := false
	for _, f := range frags[1:] {
		_, d, _ := r.Add(f)
		done = done || d
	}
	if done {
		t.Error("completed without the first fragment")
	}
}

func TestReassembleWholePacketPassthrough(t *testing.T) {
	p := bigPacket(100)
	r := NewReassembler()
	out, done, err := r.Add(p)
	if err != nil || !done {
		t.Fatalf("passthrough failed: %v %v", done, err)
	}
	if !bytes.Equal(out.Payload, p.Payload) {
		t.Error("payload differs")
	}
	if r.Pending() != 0 {
		t.Error("context created for whole packet")
	}
}

func TestFragmentReassembleIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(size uint16, mtuRaw uint16) bool {
		n := int(size)%8000 + 1
		mtu := int(mtuRaw)%1472 + 28 // 28..1500
		p := bigPacket(n)
		rng.Read(p.Payload)
		frags, err := AppendFragments(nil, p, mtu)
		if err != nil {
			return false
		}
		// Shuffle.
		order := rng.Perm(len(frags))
		r := NewReassembler()
		for _, idx := range order {
			out, done, err := r.Add(frags[idx])
			if err != nil {
				return false
			}
			if done {
				return bytes.Equal(out.Payload, p.Payload) &&
					out.Src == p.Src && out.Dst == p.Dst && out.Protocol == p.Protocol
			}
		}
		return false // never completed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRefragmentFragment(t *testing.T) {
	// Fragmenting a fragment (smaller MTU downstream) must preserve
	// offsets relative to the original packet.
	p := bigPacket(4000)
	first, _ := AppendFragments(nil, p, 1500)
	var all []Packet
	for _, f := range first {
		var err error
		if all, err = AppendFragments(all, f, 576); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReassembler()
	for i, f := range all {
		out, done, err := r.Add(f)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if i != len(all)-1 {
				t.Fatal("completed early")
			}
			if !bytes.Equal(out.Payload, p.Payload) {
				t.Error("payload differs after two-level fragmentation")
			}
			return
		}
	}
	t.Fatal("never completed")
}

func BenchmarkFragment(b *testing.B) {
	p := bigPacket(8000)
	var dst []Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = AppendFragments(dst[:0], p, 1500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReassemble measures a cold reassembler: a new one per packet,
// so every context and assembly buffer is allocated.
func BenchmarkReassemble(b *testing.B) {
	p := bigPacket(8000)
	frags, _ := AppendFragments(nil, p, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewReassembler()
		for _, f := range frags {
			if _, _, err := r.Add(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReassembleSteady measures the steady state a host sees: one
// reassembler reused across packets, each payload handed back with
// Release, so contexts and buffers come from its free list.
func BenchmarkReassembleSteady(b *testing.B) {
	p := bigPacket(8000)
	frags, _ := AppendFragments(nil, p, 1500)
	r := NewReassembler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range frags {
			if _, _, err := r.Add(f); err != nil {
				b.Fatal(err)
			}
		}
		r.Release()
	}
}
