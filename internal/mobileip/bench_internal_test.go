package mobileip

import (
	"testing"

	"mob4x4/internal/inet"
	"mob4x4/internal/netsim"
)

// benchAgent builds a home agent with n bindings installed directly
// through the registration path (no simulated transit), the shape a
// fleet-scale storm leaves the table in.
func benchAgent(tb testing.TB, n int) (*HomeAgent, *inet.LAN) {
	tb.Helper()
	net := inet.New(1)
	home := net.AddLAN("home", "36.1.0.0/16", netsim.SegmentOpts{Latency: 1e6})
	haHost := net.AddHost("ha", home)
	ha, err := NewHomeAgent(haHost, haHost.Ifaces()[0], HomeAgentConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		req := Request{
			Lifetime:  3600,
			Home:      home.Prefix.Host(1000 + i),
			HomeAgent: ha.Addr(),
			CareOf:    home.Prefix.Host(40000 + i),
			ID:        1,
		}
		ha.register(&req)
	}
	if ha.Bindings() != n {
		tb.Fatalf("installed %d bindings, want %d", ha.Bindings(), n)
	}
	return ha, home
}

// BenchmarkHABindingLookup measures CareOf against a fleet-sized binding
// table: the per-forwarded-packet lookup every In-IE delivery pays.
func BenchmarkHABindingLookup(b *testing.B) {
	const n = 10_000
	ha, home := benchAgent(b, n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := home.Prefix.Host(1000 + i%n)
		if _, ok := ha.CareOf(addr); !ok {
			b.Fatalf("binding for %s missing", addr)
		}
	}
}

// BenchmarkHARegisterRenewal measures the steady-state renewal path —
// getOrCreate hit, generation bump, wheel re-schedule — against a full
// table. This is the per-handoff processing cost the fleet storm pays N
// times per mass move; the allocation pin lives in
// TestRenewalProcessingAllocs.
func BenchmarkHARegisterRenewal(b *testing.B) {
	const n = 10_000
	ha, home := benchAgent(b, n)
	req := Request{
		Lifetime:  3600,
		Home:      home.Prefix.Host(1000),
		HomeAgent: ha.Addr(),
		CareOf:    home.Prefix.Host(40000),
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req.ID = uint64(i + 2)
		ha.register(&req)
	}
}

// TestRenewalProcessingAllocs pins the steady-state re-registration path
// near zero allocations per renewal. The binding struct, its noticed
// map, and the wheel's slot buckets are all reused across generations;
// the only allocation left is the amortized growth of the slot bucket
// the renewals append into (lazy deletion keeps superseded entries until
// the slot fires), so the average over many renewals must stay a small
// fraction of an object per op — not the several objects a timer-per-
// renewal design costs.
func TestRenewalProcessingAllocs(t *testing.T) {
	ha, home := benchAgent(t, 1000)
	req := Request{
		Lifetime:  3600,
		Home:      home.Prefix.Host(1000),
		HomeAgent: ha.Addr(),
		CareOf:    home.Prefix.Host(40000),
	}
	id := uint64(1)
	renew := func() {
		id++
		req.ID = id
		ha.register(&req)
	}
	renew() // create once; everything after is the renewal path
	avg := testing.AllocsPerRun(1000, renew)
	if avg > 0.1 {
		t.Errorf("steady-state renewal allocates %.3f objects/op, want <= 0.1", avg)
	}
}
