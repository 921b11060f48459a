package sock_test

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"mob4x4/internal/inet"
	"mob4x4/internal/netsim"
	"mob4x4/internal/sock"
	"mob4x4/internal/stack"
	"mob4x4/internal/tcplite"
)

// coreWorld is the driverless topology: same shape as newWorld but no
// Driver and no goroutines — everything runs on the caller via nw.Run,
// the way the fleet's facade workload class uses the core layer.
type coreWorld struct {
	nw             *inet.Network
	client, server *stack.Host
	cnet, snet     *sock.Net
}

func newCoreWorld(seed int64) *coreWorld {
	nw := inet.New(seed)
	a := nw.AddLAN("a", "10.1.0.0/24", netsim.SegmentOpts{Latency: 2 * ms})
	b := nw.AddLAN("b", "10.2.0.0/24", netsim.SegmentOpts{Latency: 2 * ms})
	r := nw.AddRouter("r")
	nw.AttachRouter(r, a)
	nw.AttachRouter(r, b)
	client := nw.AddHost("client", a)
	server := nw.AddHost("server", b)
	nw.ComputeRoutes()
	return &coreWorld{
		nw:     nw,
		client: client,
		server: server,
		cnet:   sock.NewNet(nil, client, tcplite.New(client)),
		snet:   sock.NewNet(nil, server, tcplite.New(server)),
	}
}

// TestCorePacketConnLifecycle exercises the packet side of the core
// layer: address accessors, WriteToCore /
// TryReadFrom exchange via SetEvent, and the closed-socket error paths.
func TestCorePacketConnLifecycle(t *testing.T) {
	w := newCoreWorld(19)
	srv, err := w.snet.ListenPacketCore(sock.Addr{Port: 6100})
	if err != nil {
		t.Fatalf("server ListenPacketCore: %v", err)
	}
	cli, err := w.cnet.ListenPacketCore(sock.Addr{})
	if err != nil {
		t.Fatalf("client ListenPacketCore: %v", err)
	}
	la := cli.LocalAddr().(sock.Addr)
	if la.Port == 0 || la.Proto != "udp" {
		t.Fatalf("client LocalAddr: %v", la)
	}
	if ra := cli.RemoteAddr().(sock.Addr); !ra.IP.IsZero() {
		t.Fatalf("unconnected RemoteAddr: %v", ra)
	}

	peer := sock.Addr{IP: w.server.FirstAddr(), Port: 6100}

	sbuf := make([]byte, 64)
	srv.SetEvent(func() {
		for {
			n, src, ok, rerr := srv.TryReadFrom(sbuf)
			if !ok || rerr != nil {
				return
			}
			_ = srv.WriteToCore(sbuf[:n], src)
		}
	})
	var got []byte
	cbuf := make([]byte, 64)
	cli.SetEvent(func() {
		for {
			n, _, ok, rerr := cli.TryReadFrom(cbuf)
			if !ok || rerr != nil {
				return
			}
			got = append(got, cbuf[:n]...)
		}
	})

	if n, _, ok, err := cli.TryReadFrom(cbuf); n != 0 || ok || err != nil {
		t.Fatalf("TryReadFrom on empty queue: n=%d ok=%v err=%v", n, ok, err)
	}
	payload := []byte("core-datagram")
	if err := cli.WriteToCore(payload, sock.Addr{IP: peer.IP, Port: peer.Port, Proto: "udp"}); err != nil {
		t.Fatalf("WriteToCore: %v", err)
	}
	w.nw.Run()
	if string(got) != string(payload) {
		t.Fatalf("echo: %q, want %q", got, payload)
	}

	cli.CloseCore()
	cli.CloseCore() // idempotent
	if _, _, _, err := cli.TryReadFrom(cbuf); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("TryReadFrom after close: %v, want net.ErrClosed", err)
	}
	if err := cli.WriteToCore(payload, peer); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("WriteToCore after close: %v, want net.ErrClosed", err)
	}
	srv.CloseCore()
}

// TestDriverDoSetSettle covers the driver's public op-submission path,
// the settle tuning knob (including a zero sleep), and the shutdown
// contract: double Shutdown, shutdown of a never-started driver, and
// inline execution of ops submitted after shutdown.
func TestDriverDoSetSettle(t *testing.T) {
	nw := inet.New(21)
	d := sock.NewDriver(nw.Sched())
	d.SetSettle(5, 0)
	d.Start()
	d.Start() // second Start is a no-op

	ran := false
	d.Do(func() { ran = true })
	if !ran {
		t.Fatal("Do did not run the op")
	}
	if now := d.WallNow(); now.Before(sock.EpochTime()) {
		t.Fatalf("WallNow before the virtual epoch: %v", now)
	}
	d.Shutdown()
	d.Shutdown() // idempotent
	ran = false
	d.Do(func() { ran = true }) // post-shutdown ops run inline
	if !ran {
		t.Fatal("post-shutdown Do did not run the op")
	}

	d2 := sock.NewDriver(inet.New(22).Sched())
	d2.Shutdown() // never started: must not hang
}

// TestDialUDPBlocking covers the blocking layer's UDP dial: Dial("udp")
// returns a connected packet socket whose net.Conn methods round-trip
// through an unconnected server socket, and whose post-close deadline
// calls fail with net.ErrClosed.
func TestDialUDPBlocking(t *testing.T) {
	w := newWorld(11)
	pcRaw, err := w.snet.ListenPacket("udp", ":6000")
	if err != nil {
		t.Fatalf("ListenPacket: %v", err)
	}
	spc := pcRaw.(*sock.PacketConn)
	if _, err := spc.Write([]byte("x")); err == nil {
		t.Fatal("Write on unconnected packet socket succeeded")
	}
	go func() { // echo until closed
		buf := make([]byte, 256)
		for {
			n, src, err := spc.ReadFrom(buf)
			if err != nil {
				return
			}
			if _, err := spc.WriteTo(buf[:n], src); err != nil {
				return
			}
		}
	}()

	c, err := w.cnet.Dial("udp", w.serverAddr(6000))
	if err != nil {
		t.Fatalf("Dial udp: %v", err)
	}
	if ra := c.RemoteAddr().(sock.Addr); ra.Port != 6000 {
		t.Fatalf("dialed RemoteAddr: %v", ra)
	}
	payload := []byte("dial-udp-ping")
	if _, err := c.Write(payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 256)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != string(payload) {
		t.Fatalf("echo read: %q err=%v", buf[:n], err)
	}

	c.Close()
	cpc := c.(*sock.PacketConn)
	if err := cpc.SetDeadline(w.d.WallNow()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("SetDeadline after close: %v", err)
	}
	if err := cpc.SetReadDeadline(w.d.WallNow()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("SetReadDeadline after close: %v", err)
	}
	if err := cpc.SetWriteDeadline(w.d.WallNow()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("SetWriteDeadline after close: %v", err)
	}
	spc.Close()
	w.d.Shutdown()
}

// TestTCPWriteDeadlineExpiry parks a large Write against back-pressure
// and lets the write deadline fire before the first acknowledgement can
// free backlog space (5ms of virtual time against an 8ms round trip):
// the Write must return the partial count and a timeout, exactly at the
// deadline. Then the closed-connection deadline errors are checked.
func TestTCPWriteDeadlineExpiry(t *testing.T) {
	w := newWorld(13)
	ln, err := w.snet.Listen("tcp", ":7100")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	type result struct {
		c   net.Conn
		err error
	}
	acc := make(chan result, 1)
	go func() {
		c, err := ln.Accept()
		acc <- result{c, err}
	}()
	c, err := w.cnet.Dial("tcp", w.serverAddr(7100))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	r := <-acc
	if r.err != nil {
		t.Fatalf("Accept: %v", r.err)
	}

	if err := c.SetWriteDeadline(w.d.WallNow().Add(5 * time.Millisecond)); err != nil {
		t.Fatalf("SetWriteDeadline: %v", err)
	}
	big := make([]byte, 256<<10)
	n, err := c.Write(big)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("parked write: err=%v, want deadline exceeded", err)
	}
	if n == 0 || n >= len(big) {
		t.Fatalf("parked write accepted %d of %d bytes, want a partial count", n, len(big))
	}

	c.Close()
	if err := c.SetDeadline(w.d.WallNow()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("SetDeadline after close: %v", err)
	}
	if err := c.SetReadDeadline(w.d.WallNow()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("SetReadDeadline after close: %v", err)
	}
	if err := c.SetWriteDeadline(w.d.WallNow()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("SetWriteDeadline after close: %v", err)
	}
	r.c.Close()
	ln.Close()
	w.d.Shutdown()
}

// TestReadEmptyBuffer pins the stdlib corner: a zero-length Read on a
// conn with nothing buffered returns (0, nil) without blocking.
func TestReadEmptyBuffer(t *testing.T) {
	w := newWorld(15)
	ln, err := w.snet.Listen("tcp", ":7200")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	acc := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			acc <- nil
			return
		}
		acc <- c
	}()
	c, err := w.cnet.Dial("tcp", w.serverAddr(7200))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	sc := <-acc
	if sc == nil {
		t.Fatal("Accept failed")
	}
	if n, err := c.Read(nil); n != 0 || err != nil {
		t.Fatalf("zero-length read: n=%d err=%v", n, err)
	}
	c.Close()
	sc.Close()
	ln.Close()
	w.d.Shutdown()
}
