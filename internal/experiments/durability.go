package experiments

import (
	"fmt"
	"strings"

	"mob4x4/internal/assert"
	"mob4x4/internal/core"
	"mob4x4/internal/tcplite"
	"mob4x4/internal/vtime"
)

// DurabilityResult is experiment E11 (Section 2's connection-durability
// requirement vs Section 4's Out-DT trade-off): a long-lived interactive
// session while the mobile host moves between visited networks.
type DurabilityResult struct {
	Endpoint string // "home" or "temporary"
	Moves    int
	// EchoesBeforeMove and EchoesAfterMoves count request/response round
	// trips completed in each epoch.
	EchoesBeforeMove int
	EchoesAfterMoves int
	// Survived reports whether the connection was still usable at the
	// end (home-address sessions must survive; temporary-address
	// sessions must not).
	Survived bool
	// ConnError is the error the transport reported, if any.
	ConnError string
	// ReconnectsNeeded is how many fresh connections an application
	// using temporary addresses would have needed (the Web-browser
	// 'reload' model).
	ReconnectsNeeded int
}

// RunDurability executes E11 for one endpoint choice.
func RunDurability(seed int64, useHomeAddress bool, moves int) DurabilityResult {
	res := DurabilityResult{Endpoint: "temporary", Moves: moves}
	if useHomeAddress {
		res.Endpoint = "home"
	}

	s := Build(Options{Seed: seed, Selector: core.NewSelector(core.StartOptimistic)})
	s.Roam()

	// Echo server on the far correspondent.
	if _, err := s.CHFarTCP.Listen(23, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) { _ = c.Write(p) }
	}); err != nil {
		assert.Unreachable("durability: start echo server: %v", err)
	}

	local := s.MN.CareOf()
	if useHomeAddress {
		local = s.MN.Home()
	}
	conn, err := s.MHTCP.Dial(local, s.CHFar.FirstAddr(), 23)
	assert.NoError(err, "durability: dial echo server")
	alive := true
	echoes := 0
	conn.OnData = func(p []byte) { echoes++ }
	conn.OnError = func(e error) {
		alive = false
		res.ConnError = e.Error()
	}
	conn.OnEstablished = func() { _ = conn.Write([]byte("keystroke")) }
	// Interactive traffic: one keystroke per second, paced by echoes.
	ticker := func() {}
	ticker = func() {
		if !alive || conn.State() == tcplite.StateClosed {
			return
		}
		_ = conn.Write([]byte("k"))
		s.Net.Sched().After(1*Second, ticker)
	}
	s.Net.Sched().After(1*Second, ticker)

	s.Net.RunFor(10 * Second)
	res.EchoesBeforeMove = echoes

	// Roam between the two visited LANs.
	for i := 0; i < moves; i++ {
		if i%2 == 0 {
			s.RoamB()
		} else {
			s.Roam()
		}
		s.Net.RunFor(10 * Second)
	}
	s.Net.RunFor(30 * Second)

	res.EchoesAfterMoves = echoes - res.EchoesBeforeMove
	res.Survived = alive && conn.State() != tcplite.StateClosed && res.EchoesAfterMoves > 0
	if !res.Survived {
		res.ReconnectsNeeded = moves
	}
	return res
}

// DurabilityTable renders a pair of E11 runs.
func DurabilityTable(rows []DurabilityResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 2 — connection durability across movement\n")
	fmt.Fprintf(&b, "  %-10s %6s %12s %12s %9s %11s\n",
		"endpoint", "moves", "echoes-pre", "echoes-post", "survived", "reconnects")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %6d %12d %12d %9v %11d\n",
			r.Endpoint, r.Moves, r.EchoesBeforeMove, r.EchoesAfterMoves, r.Survived, r.ReconnectsNeeded)
	}
	return b.String()
}

// WebBrowseResult compares full Mobile IP against the Out-DT port
// heuristic for short HTTP-like fetches (the Row D motivation: "the large
// cost of slowing down all Web browsing with the overhead of using Mobile
// IP for every connection").
type WebBrowseResult struct {
	Mode          string // "mobileip" or "out-dt"
	Fetches       int
	Completed     int
	TotalTime     vtime.Duration
	BackboneBytes uint64
}

// RunWebBrowse executes the examples/webbrowse measurement: n sequential
// small fetches from the far correspondent.
func RunWebBrowse(seed int64, n int, useMobileIP bool) WebBrowseResult {
	res := WebBrowseResult{Mode: "out-dt", Fetches: n}
	sel := core.NewSelector(core.StartPessimistic) // Out-IE for home traffic
	s := Build(Options{Seed: seed, Selector: sel})
	s.Roam()

	const page = 8 * 1024
	if _, err := s.CHFarTCP.Listen(80, func(c *tcplite.Conn) {
		c.OnData = func(p []byte) {
			_ = c.Write(make([]byte, page))
			c.Close()
		}
	}); err != nil {
		assert.Unreachable("durability: start page server: %v", err)
	}

	local := s.MN.CareOf()
	if useMobileIP {
		res.Mode = "mobileip"
		local = s.MN.Home()
	}

	start := s.Net.Sim.Now()
	var fetch func(i int)
	fetch = func(i int) {
		if i >= n {
			res.TotalTime = s.Net.Sim.Now().Sub(start)
			return
		}
		conn, err := s.MHTCP.Dial(local, s.CHFar.FirstAddr(), 80)
		if err != nil {
			return
		}
		var got int
		conn.OnEstablished = func() { _ = conn.Write([]byte("GET / HTTP/1.0\r\n\r\n")) }
		conn.OnData = func(p []byte) { got += len(p) }
		conn.OnClose = func() {
			if got >= page {
				res.Completed++
			}
			conn.Close()
			fetch(i + 1)
		}
	}
	fetch(0)
	s.Net.RunFor(vtime.Duration(n) * 30 * Second)
	if res.TotalTime == 0 {
		res.TotalTime = s.Net.Sim.Now().Sub(start) // did not finish
	}

	for _, seg := range s.Net.Sim.Segments() {
		if strings.HasPrefix(seg.Name(), "p2p-") {
			res.BackboneBytes += seg.BytesCarried
		}
	}
	return res
}
