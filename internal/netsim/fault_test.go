package netsim

import (
	"bytes"
	"testing"

	"mob4x4/internal/metrics"
	"mob4x4/internal/vtime"
)

func faultPair(t *testing.T) (*Sim, *Segment, *NIC, *NIC, *[][]byte) {
	t.Helper()
	sim := NewSim(1)
	seg := sim.NewSegment("lan", SegmentOpts{Latency: 1e6})
	sender := sim.NewNIC("tx")
	receiver := sim.NewNIC("rx")
	var got [][]byte
	receiver.SetReceiver(func(_ *NIC, f Frame) {
		got = append(got, append([]byte(nil), f.Payload...))
	})
	sender.Attach(seg)
	receiver.Attach(seg)
	return sim, seg, sender, receiver, &got
}

func sendPooled(sender *NIC, dst MAC, payload []byte) {
	buf := GetBuf()
	buf.B = append(buf.B, payload...)
	sender.Send(Frame{Dst: dst, Type: EtherTypeIPv4, Payload: buf.B, Buf: buf})
}

func TestFaultHookDuplicate(t *testing.T) {
	sim, seg, sender, receiver, got := faultPair(t)
	seg.SetFaultHook(func(Frame) Impairment { return Impairment{Duplicate: true} })
	base := BufOutstanding()
	sendPooled(sender, receiver.MAC(), []byte("twice"))
	sim.Sched.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(*got))
	}
	for _, p := range *got {
		if !bytes.Equal(p, []byte("twice")) {
			t.Errorf("payload corrupted in duplication: %q", p)
		}
	}
	if n := BufOutstanding() - base; n != 0 {
		t.Errorf("BufOutstanding grew by %d (duplicate buffer leaked)", n)
	}
}

func TestFaultHookCorrupt(t *testing.T) {
	sim, seg, sender, receiver, got := faultPair(t)
	seg.SetFaultHook(func(Frame) Impairment { return Impairment{Corrupt: true} })
	orig := []byte("checksums must catch this")
	sendPooled(sender, receiver.MAC(), orig)
	sim.Sched.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(*got))
	}
	if bytes.Equal((*got)[0], orig) {
		t.Error("payload unchanged; corruption did not flip a bit")
	}
	// Exactly one bit differs.
	diffBits := 0
	for i := range orig {
		x := orig[i] ^ (*got)[0][i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Errorf("corruption flipped %d bits, want exactly 1", diffBits)
	}
}

func TestFaultHookReorder(t *testing.T) {
	sim, seg, sender, receiver, got := faultPair(t)
	// Delay only the first frame far enough that the second overtakes it.
	first := true
	seg.SetFaultHook(func(Frame) Impairment {
		if first {
			first = false
			return Impairment{ExtraDelay: vtime.Duration(10e6)}
		}
		return Impairment{}
	})
	sendPooled(sender, receiver.MAC(), []byte("A"))
	sendPooled(sender, receiver.MAC(), []byte("B"))
	sim.Sched.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(*got))
	}
	if string((*got)[0]) != "B" || string((*got)[1]) != "A" {
		t.Errorf("order = %q,%q, want B then A (reordered)", (*got)[0], (*got)[1])
	}
}

func TestFaultHookRemovalRestoresCleanPath(t *testing.T) {
	sim, seg, sender, receiver, got := faultPair(t)
	seg.SetFaultHook(func(Frame) Impairment { return Impairment{Drop: true} })
	sendPooled(sender, receiver.MAC(), []byte("lost"))
	seg.SetFaultHook(nil)
	sendPooled(sender, receiver.MAC(), []byte("clean"))
	sim.Sched.Run()
	if len(*got) != 1 || string((*got)[0]) != "clean" {
		t.Fatalf("got %d frames, want only the post-removal one", len(*got))
	}
	if n := sim.Metrics.DropCount(metrics.DropFault); n != 1 {
		t.Errorf("drop/fault = %d, want 1", n)
	}
}

func TestSegmentDownWindow(t *testing.T) {
	sim, seg, sender, receiver, got := faultPair(t)
	seg.SetDown(true)
	sendPooled(sender, receiver.MAC(), []byte("during"))
	seg.SetDown(false)
	sendPooled(sender, receiver.MAC(), []byte("after"))
	sim.Sched.Run()
	if len(*got) != 1 || string((*got)[0]) != "after" {
		t.Fatalf("got %d frames, want only the post-heal one", len(*got))
	}
	if n := sim.Metrics.DropCount(metrics.DropDown); n != 1 {
		t.Errorf("drop/down = %d, want 1", n)
	}
}

// TestSegmentByName covers the fault-schedule addressing helper.
func TestSegmentByName(t *testing.T) {
	sim := NewSim(1)
	a := sim.NewSegment("alpha", SegmentOpts{})
	sim.NewSegment("beta", SegmentOpts{})
	if sim.SegmentByName("alpha") != a {
		t.Error("SegmentByName(alpha) did not return the segment")
	}
	if sim.SegmentByName("gamma") != nil {
		t.Error("SegmentByName(gamma) should be nil")
	}
}
