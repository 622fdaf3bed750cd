package dns

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

var (
	t0   = time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)
	tEnd = time.Date(2018, 1, 15, 0, 0, 0, 0, time.UTC)
	mid  = time.Date(2017, 11, 1, 0, 0, 0, 0, time.UTC)
)

func sv(ip uint32, c geodata.Country) ServerIP {
	return ServerIP{IP: netsim.IP(ip), Country: c, From: t0, To: tEnd}
}

func newTestServer(logFn func(Resolution)) *Server {
	s := NewServer(logFn)
	s.Register("ads.example.com", "example", PolicyNearest, 300*time.Second, []ServerIP{
		sv(0x10000001, "US"),
		sv(0x10000002, "DE"),
		sv(0x10000003, "GB"),
	})
	s.Register("hq.example.com", "example", PolicyHQ, 7200*time.Second, []ServerIP{
		sv(0x10000010, "US"),
		sv(0x10000011, "DE"),
	})
	s.Register("rand.example.com", "example", PolicyRandom, 300*time.Second, []ServerIP{
		sv(0x10000021, "US"),
		sv(0x10000022, "DE"),
	})
	return s
}

func TestResolveNearestPrefersUserCountry(t *testing.T) {
	s := newTestServer(nil)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		ip, err := s.Resolve(rng, "ads.example.com", "DE", mid)
		if err != nil {
			t.Fatal(err)
		}
		if ip != 0x10000002 {
			t.Fatalf("DE user resolved to %s, want the DE server", ip)
		}
	}
}

func TestResolveNearestFallsBackToContinent(t *testing.T) {
	s := newTestServer(nil)
	rng := rand.New(rand.NewSource(2))
	// French user: no FR server; DE and GB are both Europe; nearest to
	// Paris is the GB (London) server... distance Paris-London ~340km vs
	// Paris-Frankfurt ~480km.
	ip, err := s.Resolve(rng, "ads.example.com", "FR", mid)
	if err != nil {
		t.Fatal(err)
	}
	if ip != 0x10000003 {
		t.Errorf("FR user resolved to %s, want GB server (nearest in Europe)", ip)
	}
	// Swiss (Rest of Europe) user must also stay in Europe: Zurich is
	// closer to Frankfurt than London.
	ip, err = s.Resolve(rng, "ads.example.com", "CH", mid)
	if err != nil {
		t.Fatal(err)
	}
	if ip != 0x10000002 {
		t.Errorf("CH user resolved to %s, want DE server", ip)
	}
}

func TestResolveNearestGlobalFallback(t *testing.T) {
	s := NewServer(nil)
	s.Register("us-only.example.com", "example", PolicyNearest, time.Minute, []ServerIP{
		sv(0x10000030, "US"),
	})
	rng := rand.New(rand.NewSource(3))
	ip, err := s.Resolve(rng, "us-only.example.com", "DE", mid)
	if err != nil || ip != 0x10000030 {
		t.Errorf("got %s, %v; want the only US server", ip, err)
	}
}

func TestResolveHQ(t *testing.T) {
	s := newTestServer(nil)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		ip, err := s.Resolve(rng, "hq.example.com", "DE", mid)
		if err != nil {
			t.Fatal(err)
		}
		if ip != 0x10000010 {
			t.Fatalf("HQ policy must deterministically serve the first binding, got %s", ip)
		}
	}
}

func TestResolveRandomSpreads(t *testing.T) {
	s := newTestServer(nil)
	rng := rand.New(rand.NewSource(5))
	seen := map[netsim.IP]int{}
	for i := 0; i < 200; i++ {
		ip, err := s.Resolve(rng, "rand.example.com", "DE", mid)
		if err != nil {
			t.Fatal(err)
		}
		seen[ip]++
	}
	if len(seen) != 2 {
		t.Fatalf("random policy hit %d servers, want 2", len(seen))
	}
	for ip, n := range seen {
		if n < 40 {
			t.Errorf("server %s only picked %d/200 times", ip, n)
		}
	}
}

func TestResolveContinentPolicy(t *testing.T) {
	s := NewServer(nil)
	s.Register("cont.example.com", "example", PolicyContinent, time.Minute, []ServerIP{
		sv(0x10000041, "US"),
		sv(0x10000042, "DE"),
		sv(0x10000043, "NL"),
	})
	rng := rand.New(rand.NewSource(6))
	seen := map[netsim.IP]int{}
	for i := 0; i < 300; i++ {
		ip, err := s.Resolve(rng, "cont.example.com", "ES", mid)
		if err != nil {
			t.Fatal(err)
		}
		seen[ip]++
	}
	if seen[0x10000041] != 0 {
		t.Error("continent policy leaked a European user to the US server")
	}
	if seen[0x10000042] == 0 || seen[0x10000043] == 0 {
		t.Error("continent policy must balance across both EU servers")
	}
}

func TestResolveErrors(t *testing.T) {
	s := newTestServer(nil)
	rng := rand.New(rand.NewSource(7))
	if _, err := s.Resolve(rng, "nope.example.com", "DE", mid); err != ErrNXDomain {
		t.Errorf("err = %v, want ErrNXDomain", err)
	}
	s.Register("expired.example.com", "example", PolicyNearest, time.Minute, []ServerIP{
		{IP: 1, Country: "US", From: t0, To: t0.Add(24 * time.Hour)},
	})
	if _, err := s.Resolve(rng, "expired.example.com", "DE", tEnd); err != ErrNoActiveServer {
		t.Errorf("err = %v, want ErrNoActiveServer", err)
	}
}

func TestActivityWindows(t *testing.T) {
	s := NewServer(nil)
	early := ServerIP{IP: 1, Country: "US", From: t0, To: t0.Add(30 * 24 * time.Hour)}
	late := ServerIP{IP: 2, Country: "US", From: t0.Add(31 * 24 * time.Hour), To: tEnd}
	s.Register("rot.example.com", "example", PolicyRandom, time.Minute, []ServerIP{early, late})
	rng := rand.New(rand.NewSource(8))
	ip, err := s.Resolve(rng, "rot.example.com", "DE", t0.Add(24*time.Hour))
	if err != nil || ip != 1 {
		t.Errorf("early window: got %v/%v want IP 1", ip, err)
	}
	ip, err = s.Resolve(rng, "rot.example.com", "DE", tEnd.Add(-24*time.Hour))
	if err != nil || ip != 2 {
		t.Errorf("late window: got %v/%v want IP 2", ip, err)
	}
}

func TestResolutionLog(t *testing.T) {
	var logged []Resolution
	s := newTestServer(func(r Resolution) { logged = append(logged, r) })
	rng := rand.New(rand.NewSource(9))
	if _, err := s.Resolve(rng, "ads.example.com", "DE", mid); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 1 {
		t.Fatalf("logged %d resolutions, want 1", len(logged))
	}
	if logged[0].FQDN != "ads.example.com" || logged[0].IP != 0x10000002 || !logged[0].At.Equal(mid) {
		t.Errorf("log entry = %+v", logged[0])
	}
	// Failed lookups are not logged.
	s.Resolve(rng, "missing.example.com", "DE", mid)
	if len(logged) != 1 {
		t.Error("failed resolution must not be logged")
	}
}

func TestZonesAndAccessors(t *testing.T) {
	s := newTestServer(nil)
	z := s.Zones()
	if len(z) != 3 {
		t.Fatalf("zones = %v", z)
	}
	for i := 1; i < len(z); i++ {
		if z[i-1] >= z[i] {
			t.Error("zones not sorted")
		}
	}
	if got := s.TTL("ads.example.com"); got != 300*time.Second {
		t.Errorf("TTL = %v", got)
	}
	if got := s.TTL("hq.example.com"); got != 7200*time.Second {
		t.Errorf("facebook-style TTL = %v", got)
	}
	if s.TTL("missing") != 0 {
		t.Error("missing TTL must be 0")
	}
	if p, ok := s.Policy("rand.example.com"); !ok || p != PolicyRandom {
		t.Errorf("Policy = %v, %v", p, ok)
	}
	if _, ok := s.Policy("missing"); ok {
		t.Error("missing policy must report !ok")
	}
	servers := s.Servers("ads.example.com")
	if len(servers) != 3 {
		t.Fatalf("servers = %d", len(servers))
	}
	for i := 1; i < len(servers); i++ {
		if servers[i-1].IP >= servers[i].IP {
			t.Error("servers not sorted by IP")
		}
	}
	if s.Servers("missing") != nil {
		t.Error("missing servers must be nil")
	}
}

func TestRegisterValidation(t *testing.T) {
	s := NewServer(nil)
	defer func() {
		if recover() == nil {
			t.Error("Register with no servers must panic")
		}
	}()
	s.Register("x.example.com", "x", PolicyNearest, time.Minute, nil)
}

func TestPolicyStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []Policy{PolicyNearest, PolicyContinent, PolicyHQ, PolicyRandom} {
		s := p.String()
		if s == "" || seen[s] {
			t.Errorf("policy %d string %q", p, s)
		}
		seen[s] = true
	}
}

func TestRegisterAfterFreezePanics(t *testing.T) {
	srv := NewServer(nil)
	from := time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)
	to := from.AddDate(0, 6, 0)
	servers := []ServerIP{{IP: 1, Country: "DE", From: from, To: to}}
	srv.Register("a.example", "org", PolicyNearest, time.Minute, servers)
	srv.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Register after Freeze must panic")
		}
	}()
	srv.Register("b.example", "org", PolicyNearest, time.Minute, servers)
}

// TestResolveConcurrentReadOnly drives the frozen resolver from many
// goroutines, each with a private rng, and checks every goroutine gets
// exactly the answers a lone goroutine with the same rng seed gets
// from Resolve, every other goroutine answering through one set of
// shared Plans instead. Run under -race this also proves the resolve path and Pick
// perform no writes.
func TestResolveConcurrentReadOnly(t *testing.T) {
	srv := NewServer(nil)
	srv.Spill = 0.1
	from := time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)
	to := from.AddDate(0, 6, 0)
	countries := []geodata.Country{"DE", "US", "FR", "GB", "BR"}
	policies := []Policy{PolicyNearest, PolicyContinent, PolicyHQ, PolicyRandom}
	var zones []string
	for i := 0; i < 40; i++ {
		var servers []ServerIP
		for k := 0; k < 4; k++ {
			servers = append(servers, ServerIP{
				IP:      netsim.IP(0x10000000 + i*16 + k),
				Country: countries[(i+k)%len(countries)],
				From:    from, To: to,
			})
		}
		fqdn := fmt.Sprintf("z%02d.example", i)
		srv.Register(fqdn, "org", policies[i%len(policies)], time.Minute, servers)
		zones = append(zones, fqdn)
	}
	srv.Freeze()

	day := from.AddDate(0, 1, 0)
	plans := make([][]*Plan, 4)
	for round := range plans {
		for _, z := range zones {
			plans[round] = append(plans[round], srv.Plan(z, countries[round%len(countries)], day))
		}
	}
	resolveAll := func(seed int64, usePlans bool) []netsim.IP {
		rng := rand.New(rand.NewSource(seed))
		out := make([]netsim.IP, 0, 4*len(zones))
		for round := 0; round < 4; round++ {
			for zi, z := range zones {
				var ip netsim.IP
				var err error
				if usePlans {
					ip, err = plans[round][zi].Pick(rng)
				} else {
					ip, err = srv.Resolve(rng, z, countries[round%len(countries)], day)
				}
				if err != nil {
					t.Errorf("resolve %s: %v", z, err)
				}
				out = append(out, ip)
			}
		}
		return out
	}

	const goroutines = 8
	want := make([][]netsim.IP, goroutines)
	for gi := range want {
		want[gi] = resolveAll(int64(gi+1), false)
	}
	got := make([][]netsim.IP, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			got[gi] = resolveAll(int64(gi+1), gi%2 == 0)
		}(gi)
	}
	wg.Wait()
	for gi := range want {
		for i := range want[gi] {
			if want[gi][i] != got[gi][i] {
				t.Fatalf("goroutine %d answer %d: %s sequentially vs %s concurrently",
					gi, i, want[gi][i], got[gi][i])
			}
		}
	}
}
