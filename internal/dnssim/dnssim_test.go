package dnssim

import (
	"testing"

	"mob4x4/internal/faults"
	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

// dnsWorld: server on LAN a, client on LAN b, router between.
func dnsWorld(t testing.TB, loss float64) (*inet.Network, *Server, *Resolver) {
	t.Helper()
	n := inet.New(3)
	a := n.AddLAN("a", "10.1.0.0/24", netsim.SegmentOpts{Latency: 1e6})
	b := n.AddLAN("b", "10.2.0.0/24", netsim.SegmentOpts{Latency: 1e6})
	if loss > 0 {
		faults.ImpairLink(n.Sim, b.Seg, faults.LinkFaultOpts{GoodLoss: loss})
	}
	r := n.AddRouter("r")
	n.AttachRouter(r, a)
	n.AttachRouter(r, b)
	serverHost := n.AddHost("dns", a)
	clientHost := n.AddHost("client", b)
	n.ComputeRoutes()

	srv, err := NewServer(serverHost)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewResolver(clientHost, serverHost.FirstAddr())
	if err != nil {
		t.Fatal(err)
	}
	return n, srv, res
}

func TestQueryARecord(t *testing.T) {
	n, srv, res := dnsWorld(t, 0)
	addr := ipv4.MustParseAddr("36.1.1.3")
	srv.AddA("mh.example.edu", addr)

	var got []Record
	var gotErr error
	res.Query("mh.example.edu", func(recs []Record, err error) { got, gotErr = recs, err })
	n.RunFor(3e9)

	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if len(got) != 1 || got[0].Type != TypeA || got[0].Addr != addr {
		t.Errorf("records = %+v", got)
	}
	if srv.Stats.Queries != 1 {
		t.Errorf("server queries = %d", srv.Stats.Queries)
	}
}

func TestQueryMissingName(t *testing.T) {
	n, srv, res := dnsWorld(t, 0)
	var got []Record
	answered := false
	res.Query("nope.example.edu", func(recs []Record, err error) {
		got, answered = recs, err == nil
	})
	n.RunFor(3e9)
	if !answered {
		t.Fatal("no answer")
	}
	if len(got) != 0 {
		t.Errorf("records = %v", got)
	}
	if srv.Stats.NotFound != 1 {
		t.Errorf("notfound = %d", srv.Stats.NotFound)
	}
}

func TestCARecordLifecycle(t *testing.T) {
	n, srv, res := dnsWorld(t, 0)
	home := ipv4.MustParseAddr("36.1.1.3")
	coa := ipv4.MustParseAddr("128.9.1.4")
	srv.AddA("mh.example.edu", home)

	// Dynamic update from the "mobile host".
	var updErr error
	updated := false
	res.UpdateCA("mh.example.edu", coa, 60, func(err error) { updErr, updated = err, true })
	n.RunFor(3e9)
	if !updated || updErr != nil {
		t.Fatalf("update: %v %v", updated, updErr)
	}

	var got []Record
	res.Query("mh.example.edu", func(recs []Record, err error) { got = recs })
	n.RunFor(3e9)
	if len(got) != 2 {
		t.Fatalf("records = %+v", got)
	}
	addr, isCareOf, ok := BestAddr(got)
	if !ok || !isCareOf || addr != coa {
		t.Errorf("BestAddr = %v,%v,%v", addr, isCareOf, ok)
	}

	// The CA record expires with its TTL.
	n.RunFor(61e9)
	got = nil
	res.Query("mh.example.edu", func(recs []Record, err error) { got = recs })
	n.RunFor(3e9)
	if len(got) != 1 || got[0].Type != TypeA {
		t.Errorf("after expiry: %+v", got)
	}
}

func TestCAReplaceAndClear(t *testing.T) {
	_, srv, _ := dnsWorld(t, 0)
	home := ipv4.MustParseAddr("36.1.1.3")
	srv.AddA("mh", home)
	srv.SetCA("mh", ipv4.MustParseAddr("128.9.1.4"), 600)
	srv.SetCA("mh", ipv4.MustParseAddr("130.5.1.2"), 600) // moved again
	recs := srv.Lookup("mh")
	caCount := 0
	for _, r := range recs {
		if r.Type == TypeCA {
			caCount++
			if r.Addr != ipv4.MustParseAddr("130.5.1.2") {
				t.Errorf("stale CA: %v", r.Addr)
			}
		}
	}
	if caCount != 1 {
		t.Errorf("CA records = %d, want 1", caCount)
	}
	srv.SetCA("mh", ipv4.Zero, 0) // gone home: clear
	for _, r := range srv.Lookup("mh") {
		if r.Type == TypeCA {
			t.Error("CA record survived clear")
		}
	}
}

func TestResolverRetriesUnderLoss(t *testing.T) {
	n, srv, res := dnsWorld(t, 0.4)
	res.Retries = 8
	srv.AddA("mh", ipv4.MustParseAddr("36.1.1.3"))
	var got []Record
	var gotErr error
	done := false
	res.Query("mh", func(recs []Record, err error) { got, gotErr, done = recs, err, true })
	n.RunFor(20e9)
	if !done {
		t.Fatal("query never resolved")
	}
	if gotErr != nil {
		t.Fatalf("query failed despite retries: %v", gotErr)
	}
	if len(got) != 1 {
		t.Errorf("records = %v", got)
	}
}

func TestResolverTimesOut(t *testing.T) {
	n, _, res := dnsWorld(t, 1.0) // total loss
	var gotErr error
	done := false
	res.Query("mh", func(recs []Record, err error) { gotErr, done = err, true })
	n.RunFor(30e9)
	if !done || gotErr == nil {
		t.Errorf("expected timeout, done=%v err=%v", done, gotErr)
	}
}

func TestBestAddrFallbacks(t *testing.T) {
	a := ipv4.MustParseAddr("1.1.1.1")
	ca := ipv4.MustParseAddr("2.2.2.2")
	if addr, isCA, ok := BestAddr([]Record{{Type: TypeA, Addr: a}}); !ok || isCA || addr != a {
		t.Error("A-only")
	}
	if addr, isCA, ok := BestAddr([]Record{{Type: TypeA, Addr: a}, {Type: TypeCA, Addr: ca}}); !ok || !isCA || addr != ca {
		t.Error("CA preferred")
	}
	if _, _, ok := BestAddr(nil); ok {
		t.Error("empty set")
	}
}

func TestRTypeString(t *testing.T) {
	if TypeA.String() != "A" || TypeCA.String() != "CA" || RType(9).String() == "" {
		t.Error("record type strings")
	}
}

func TestQueryNameTooLong(t *testing.T) {
	_, _, res := dnsWorld(t, 0)
	long := make([]byte, maxNameLen+1)
	for i := range long {
		long[i] = 'a'
	}

	var gotErr error
	called := false
	res.Query(string(long), func(recs []Record, err error) { called, gotErr = true, err })

	// The rejection is synchronous: no packet is built, nothing is
	// pending, and the callback has already fired with an error.
	if !called {
		t.Fatal("done callback not invoked for oversized name")
	}
	if gotErr == nil {
		t.Fatal("expected an error for a name beyond the wire limit")
	}
	if len(res.pending) != 0 {
		t.Errorf("rejected query left %d pending entries", len(res.pending))
	}
}
