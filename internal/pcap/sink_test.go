package pcap_test

import (
	"bytes"
	"testing"

	"mob4x4/internal/inet"
	"mob4x4/internal/netsim"
	"mob4x4/internal/pcap"
	"mob4x4/internal/vtime"
)

// TestAttachVantage pins the capture's vantage point at the sending NIC:
// every frame that passes the MTU check is captured exactly once and as
// transmitted, whether the fault hook then drops it or corrupts it on
// the wire; an oversized frame never enters the segment and is not
// captured; and nothing is captured after stop.
func TestAttachVantage(t *testing.T) {
	sim := netsim.NewSim(1)
	seg := sim.NewSegment("lan", netsim.SegmentOpts{Latency: 1e6, MTU: 100})
	tx, rx := sim.NewNIC("tx"), sim.NewNIC("rx")
	var got [][]byte
	rx.SetReceiver(func(_ *netsim.NIC, f netsim.Frame) {
		got = append(got, append([]byte(nil), f.Payload...))
	})
	tx.Attach(seg)
	rx.Attach(seg)
	seg.SetFaultHook(func(f netsim.Frame) netsim.Impairment {
		switch string(f.Payload) {
		case "dropped":
			return netsim.Impairment{Drop: true}
		case "corrupted":
			return netsim.Impairment{Corrupt: true}
		}
		return netsim.Impairment{}
	})
	send := func(payload []byte) {
		buf := netsim.GetBuf()
		buf.B = append(buf.B, payload...)
		tx.Send(netsim.Frame{Dst: rx.MAC(), Type: netsim.EtherTypeIPv4, Payload: buf.B, Buf: buf})
	}

	w := pcap.NewWriter()
	stop := pcap.Attach(sim, w)
	sent := [][]byte{[]byte("first"), []byte("dropped"), []byte("corrupted"), []byte("last")}
	for _, p := range sent {
		send(p)
	}
	send(bytes.Repeat([]byte{'x'}, 101)) // over the MTU
	sim.Sched.Run()
	stop()
	if sim.Trace.On() {
		t.Fatal("stop left a tracer hook installed")
	}
	send([]byte("after stop"))
	sim.Sched.Run()

	if len(got) != 4 || !bytes.Equal(got[0], sent[0]) || bytes.Equal(got[1], sent[2]) {
		t.Fatalf("delivered %q: the fault hook did not drop and corrupt as planned", got)
	}
	c, err := pcap.Parse(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Packets) != len(sent) {
		t.Fatalf("captured %d frames, want %d", len(c.Packets), len(sent))
	}
	for i, p := range c.Packets {
		if len(p.Data) < netsim.FrameHeaderLen {
			t.Fatalf("frame %d shorter than an Ethernet header", i)
		}
		hdr, payload := p.Data[:netsim.FrameHeaderLen], p.Data[netsim.FrameHeaderLen:]
		if !bytes.Equal(payload, sent[i]) {
			t.Errorf("frame %d payload = %q, want %q as transmitted", i, payload, sent[i])
		}
		if hdr[5] != byte(rx.MAC()) || hdr[11] != byte(tx.MAC()) || hdr[12] != 0x08 || hdr[13] != 0x00 {
			t.Errorf("frame %d header = % x", i, hdr)
		}
	}
}

// TestAttachNestsWithCaptureWindow: a Capture window opened and closed
// while a pcap sink is attached costs the capture no frame (its bytes
// equal a run without the window), and the window's log holds the
// packet events but no frame event.
func TestAttachNestsWithCaptureWindow(t *testing.T) {
	run := func(window bool) (*pcap.Writer, netsim.Log) {
		n := inet.New(3)
		lan := n.AddLAN("lan", "10.0.0.0/24", netsim.SegmentOpts{Latency: vtime.Duration(1e6)})
		a := n.AddHost("a", lan)
		b := n.AddHost("b", lan)
		n.ComputeRoutes()
		if _, err := b.OpenUDP(b.FirstAddr(), 7, nil); err != nil {
			t.Fatal(err)
		}
		as, err := a.OpenUDP(a.FirstAddr(), 7000, nil)
		if err != nil {
			t.Fatal(err)
		}

		w := pcap.NewWriter()
		stop := pcap.Attach(n.Sim, w)
		_ = as.SendTo(b.FirstAddr(), 7, []byte("before"))
		n.RunFor(vtime.Duration(50e6))
		var log *netsim.Log
		closeWindow := func() {}
		if window {
			log, closeWindow = n.Sim.Trace.Capture()
		}
		_ = as.SendTo(b.FirstAddr(), 7, []byte("during"))
		n.RunFor(vtime.Duration(50e6))
		closeWindow()
		_ = as.SendTo(b.FirstAddr(), 7, []byte("after"))
		n.RunFor(vtime.Duration(50e6))
		stop()
		if log == nil {
			return w, nil
		}
		return w, *log
	}

	plain, _ := run(false)
	w, log := run(true)
	if plain.Packets() == 0 || !bytes.Equal(w.Bytes(), plain.Bytes()) {
		t.Fatalf("capture with a window: %d frames, without: %d; bytes differ", w.Packets(), plain.Packets())
	}
	kinds := map[netsim.EventKind]int{}
	for _, e := range log {
		kinds[e.Kind]++
	}
	if kinds[netsim.EventFrame] != 0 {
		t.Errorf("window log holds %d frame events", kinds[netsim.EventFrame])
	}
	if kinds[netsim.EventSend] != 1 || kinds[netsim.EventDeliver] != 1 {
		t.Errorf("window log = %v, want the one datagram's send and delivery", kinds)
	}
}
