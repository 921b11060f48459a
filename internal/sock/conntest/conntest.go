// Package conntest is a stdlib-style conformance suite for net.Conn
// implementations that run on virtual time — the same shape as
// golang.org/x/net/nettest.TestConn, re-founded on a pipe-supplied
// clock so deadline cases are exact instead of flaky: "wait 100ms" is
// a virtual-time fact the suite can assert on, not a race against the
// wall clock.
//
// The facade's blocking layer is exercised exactly as an application
// would: real goroutines calling Read/Write/SetDeadline/Close
// concurrently, with the driver advancing virtual time underneath.
package conntest

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// Pipe is one bidirectional connection under test. C1 and C2 are its
// two ends (data written to one is readable on the other). Now reports
// the connection's wall clock (virtual time behind a facade); Stop
// tears the world down after the subtest.
type Pipe struct {
	C1, C2 net.Conn
	Now    func() time.Time
	Stop   func()

	// Datagram marks a message-oriented pipe: the suite keeps each
	// write within one datagram and counts messages, not byte streams.
	Datagram bool
}

// MakePipe builds a fresh Pipe. Each subtest gets its own.
type MakePipe func() (Pipe, error)

// TestConn runs the conformance suite against mp.
func TestConn(t *testing.T, mp MakePipe) {
	t.Run("BasicIO", func(t *testing.T) { run(t, mp, testBasicIO) })
	t.Run("PingPong", func(t *testing.T) { run(t, mp, testPingPong) })
	t.Run("RacyRead", func(t *testing.T) { run(t, mp, testRacyRead) })
	t.Run("PastTimeout", func(t *testing.T) { run(t, mp, testPastTimeout) })
	t.Run("PresentTimeout", func(t *testing.T) { run(t, mp, testPresentTimeout) })
	t.Run("FutureTimeout", func(t *testing.T) { run(t, mp, testFutureTimeout) })
	t.Run("CloseTimeout", func(t *testing.T) { run(t, mp, testCloseTimeout) })
}

func run(t *testing.T, mp MakePipe, f func(*testing.T, Pipe)) {
	t.Helper()
	p, err := mp()
	if err != nil {
		t.Fatalf("MakePipe: %v", err)
	}
	defer p.Stop()
	f(t, p)
}

// isTimeout reports whether err is the facade's deadline error: a
// net.Error with Timeout() true that also matches
// os.ErrDeadlineExceeded.
func isTimeout(err error) bool {
	var ne net.Error
	return err != nil && errors.As(err, &ne) && ne.Timeout() &&
		errors.Is(err, os.ErrDeadlineExceeded)
}

// checkTimeout asserts isTimeout; test-goroutine use only (Fatalf).
func checkTimeout(t *testing.T, op string, err error) {
	t.Helper()
	if !isTimeout(err) {
		t.Fatalf("%s: got %v, want a net.Error timeout matching os.ErrDeadlineExceeded", op, err)
	}
}

// testBasicIO transfers a payload C1->C2 and verifies content.
func testBasicIO(t *testing.T, p Pipe) {
	const total = 64 << 10
	chunk := 8 << 10
	if p.Datagram {
		chunk = 512 // stay safely inside one datagram
	}
	src := make([]byte, total)
	rnd := rand.New(rand.NewPCG(42, 0))
	for i := range src {
		src[i] = byte(rnd.Uint32())
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for off := 0; off < total; off += chunk {
			end := off + chunk
			if end > total {
				end = total
			}
			if _, err := p.C1.Write(src[off:end]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()

	var got bytes.Buffer
	buf := make([]byte, 64<<10)
	for got.Len() < total {
		n, err := p.C2.Read(buf)
		if err != nil {
			t.Fatalf("read after %d bytes: %v", got.Len(), err)
		}
		got.Write(buf[:n])
	}
	wg.Wait()
	if !bytes.Equal(got.Bytes(), src) {
		t.Fatalf("transfer corrupted: got %d bytes, mismatch", got.Len())
	}
}

// testPingPong bounces a counter back and forth, verifying strict
// alternation and content.
func testPingPong(t *testing.T, p Pipe) {
	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // echo side
		defer wg.Done()
		buf := make([]byte, 16)
		for {
			n, err := p.C2.Read(buf)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
					t.Errorf("echo read: %v", err)
				}
				return
			}
			if _, err := p.C2.Write(buf[:n]); err != nil {
				t.Errorf("echo write: %v", err)
				return
			}
		}
	}()

	buf := make([]byte, 16)
	for i := byte(0); i < rounds; i++ {
		if _, err := p.C1.Write([]byte{i}); err != nil {
			t.Fatalf("round %d write: %v", i, err)
		}
		n, err := p.C1.Read(buf)
		if err != nil {
			t.Fatalf("round %d read: %v", i, err)
		}
		if n != 1 || buf[0] != i {
			t.Fatalf("round %d: got % x", i, buf[:n])
		}
	}
	p.C1.Close()
	p.C2.Close()
	wg.Wait()
}

// testRacyRead hammers reads with short deadlines from several
// goroutines while the peer streams data: every error must be a
// deadline timeout, and the reads must never corrupt or crash.
func testRacyRead(t *testing.T, p Pipe) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer side: a bounded burst keeps data flowing
		defer wg.Done()
		msg := make([]byte, 256)
		for i := 0; i < 200; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := p.C1.Write(msg); err != nil {
				return
			}
		}
	}()

	var rg sync.WaitGroup
	for g := 0; g < 4; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			buf := make([]byte, 1024)
			for i := 0; i < 10; i++ {
				p.C2.SetReadDeadline(p.Now().Add(2 * time.Millisecond))
				_, err := p.C2.Read(buf)
				if err != nil && !isTimeout(err) {
					t.Errorf("racy read: %v", err)
				}
			}
		}()
	}
	rg.Wait()
	close(stop)
	p.C2.Close() // unblock a writer parked on back-pressure
	p.C1.Close()
	wg.Wait()
}

// testPastTimeout: deadlines already in the past fail reads and writes
// immediately.
func testPastTimeout(t *testing.T, p Pipe) {
	c := p.C1
	c.SetDeadline(p.Now().Add(-time.Second))
	buf := make([]byte, 16)
	_, err := c.Read(buf)
	checkTimeout(t, "read", err)
	_, err = c.Write(buf)
	checkTimeout(t, "write", err)
}

// testPresentTimeout: a deadline of exactly now behaves as expired.
func testPresentTimeout(t *testing.T, p Pipe) {
	c := p.C1
	c.SetReadDeadline(p.Now())
	buf := make([]byte, 16)
	_, err := c.Read(buf)
	checkTimeout(t, "read", err)
	// Clearing the deadline lifts the failure mode.
	c.SetReadDeadline(time.Time{})
	c.SetWriteDeadline(p.Now().Add(time.Second))
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("write after clearing read deadline: %v", err)
	}
}

// testFutureTimeout: a blocked read returns a timeout once virtual
// time reaches the deadline — and not a moment of virtual time before.
func testFutureTimeout(t *testing.T, p Pipe) {
	const wait = 100 * time.Millisecond
	c := p.C1
	start := p.Now()
	c.SetReadDeadline(start.Add(wait))
	buf := make([]byte, 16)
	_, err := c.Read(buf)
	checkTimeout(t, "read", err)
	if elapsed := p.Now().Sub(start); elapsed < wait {
		t.Fatalf("read returned after %v of virtual time, deadline was %v", elapsed, wait)
	}
	// The deadline is sticky: the next read fails without blocking.
	_, err = c.Read(buf)
	checkTimeout(t, "second read", err)
}

// testCloseTimeout: Close releases a read blocked under a deadline
// before that deadline expires.
func testCloseTimeout(t *testing.T, p Pipe) {
	c := p.C1
	c.SetReadDeadline(p.Now().Add(10 * time.Second))
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, err := c.Read(buf)
		done <- err
	}()
	// Real-time pause so the reader actually parks before the close;
	// the assertion below is order-insensitive either way.
	//mob4x4vet:allow wallclock real-time staging of a goroutine race in a conformance-suite helper; no simulated ordering depends on it
	time.Sleep(10 * time.Millisecond)
	c.Close()
	err := <-done
	if err == nil {
		t.Fatal("read returned nil after close")
	}
	if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
		t.Fatalf("read after close: %v (want net.ErrClosed or EOF)", err)
	}
}
