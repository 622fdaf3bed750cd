package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crossborder/internal/geodata"
)

func TestIPStringParseRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "16.0.0.1", "255.255.255.255", "10.1.2.3"}
	for _, s := range cases {
		ip, err := ParseIP(s)
		if err != nil {
			t.Fatalf("ParseIP(%q): %v", s, err)
		}
		if ip.String() != s {
			t.Errorf("round trip %q -> %q", s, ip.String())
		}
	}
}

func TestParseIPErrors(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "-1.2.3.4", "a.b.c.d", "01.2.3.4"}
	for _, s := range bad {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) succeeded, want error", s)
		}
	}
}

func TestIPParseProperty(t *testing.T) {
	f := func(v uint32) bool {
		ip := IP(v)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlock(t *testing.T) {
	b := Block{Base: mustIP(t, "16.0.0.0"), PrefixLen: 24}
	if b.Size() != 256 {
		t.Errorf("Size = %d", b.Size())
	}
	if !b.Contains(mustIP(t, "16.0.0.255")) {
		t.Error("Contains(16.0.0.255) = false")
	}
	if b.Contains(mustIP(t, "16.0.1.0")) {
		t.Error("Contains(16.0.1.0) = true")
	}
	if got := b.Nth(5); got.String() != "16.0.0.5" {
		t.Errorf("Nth(5) = %s", got)
	}
	if b.String() != "16.0.0.0/24" {
		t.Errorf("String = %s", b.String())
	}
}

func TestBlockNthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range must panic")
		}
	}()
	b := Block{Base: 0, PrefixLen: 30}
	b.Nth(4)
}

func TestBlockContainsProperty(t *testing.T) {
	f := func(base uint32, off uint16) bool {
		b := Block{Base: IP(base &^ 0xffff), PrefixLen: 16}
		return b.Contains(IP(uint32(b.Base) + uint32(off)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFastHashDistribution(t *testing.T) {
	// Adjacent IPs must land in different shards most of the time.
	buckets := make(map[uint64]int)
	for i := uint32(0); i < 1024; i++ {
		buckets[IP(0x10000000+i).FastHash()&7]++
	}
	for shard, n := range buckets {
		if n < 64 || n > 192 {
			t.Errorf("shard %d has %d/1024 items; hash poorly mixed", shard, n)
		}
	}
}

func mustIP(t *testing.T, s string) IP {
	t.Helper()
	ip, err := ParseIP(s)
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

func buildWorld(t *testing.T) (*World, *Org, *Org) {
	t.Helper()
	w := NewWorld()
	g := w.AddOrg("google", KindMajorAdTech, "US", geodata.GoogleCloud)
	f := w.AddOrg("facebook", KindMajorAdTech, "US")
	w.Deploy(g, "US", "", 20)
	w.Deploy(g, "IE", geodata.GoogleCloud, 22)
	w.Deploy(g, "NL", geodata.GoogleCloud, 22)
	w.Deploy(f, "US", "", 22)
	w.Deploy(f, "IE", "", 24)
	w.Freeze()
	return w, g, f
}

func TestWorldOrgRegistry(t *testing.T) {
	w, g, _ := buildWorld(t)
	if w.Org("google") != g {
		t.Error("Org lookup failed")
	}
	if w.Org("missing") != nil {
		t.Error("missing org should be nil")
	}
	if len(w.Orgs()) != 2 {
		t.Errorf("Orgs() len = %d", len(w.Orgs()))
	}
}

func TestWorldDuplicateOrgPanics(t *testing.T) {
	w := NewWorld()
	w.AddOrg("x", KindAdTech, "US")
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddOrg must panic")
		}
	}()
	w.AddOrg("x", KindAdTech, "US")
}

func TestDeployAndLocate(t *testing.T) {
	w, g, f := buildWorld(t)
	gd := w.Deployments(g)
	if len(gd) != 3 {
		t.Fatalf("google deployments = %d", len(gd))
	}
	// Every address of every deployment locates back to it.
	for _, d := range w.AllDeployments() {
		for _, off := range []uint32{0, 1, d.Block.Size() - 1} {
			ip := d.Block.Nth(off)
			got, ok := w.LocateIP(ip)
			if !ok {
				t.Fatalf("LocateIP(%s) not found", ip)
			}
			if got.Org != d.Org || got.Country != d.Country {
				t.Errorf("LocateIP(%s) = %s/%s, want %s/%s",
					ip, got.Org.Name, got.Country, d.Org.Name, d.Country)
			}
		}
	}
	// Blocks must not overlap: facebook's addresses never locate to google.
	for _, d := range w.Deployments(f) {
		dep, ok := w.LocateIP(d.Block.Nth(0))
		if !ok || dep.Org != f {
			t.Errorf("facebook block mis-located")
		}
	}
}

func TestLocateIPMisses(t *testing.T) {
	w, _, _ := buildWorld(t)
	if _, ok := w.LocateIP(mustIP(t, "1.1.1.1")); ok {
		t.Error("address below all blocks must miss")
	}
	if _, ok := w.LocateIP(mustIP(t, "250.0.0.1")); ok {
		t.Error("address above all blocks must miss")
	}
}

func TestDeployValidation(t *testing.T) {
	w := NewWorld()
	o := w.AddOrg("o", KindAdTech, "US")
	for _, bad := range []int{8, 15, 31, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Deploy with /%d must panic", bad)
				}
			}()
			w.Deploy(o, "US", "", bad)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("Deploy(nil org) must panic")
		}
	}()
	w.Deploy(nil, "US", "", 24)
}

func TestEyeballBlocks(t *testing.T) {
	w := NewWorld()
	de := w.EyeballBlock("DE")
	de2 := w.EyeballBlock("DE")
	if de != de2 {
		t.Error("EyeballBlock not stable per country")
	}
	pl := w.EyeballBlock("PL")
	if de == pl {
		t.Error("different countries share an eyeball block")
	}
	if got := w.EyeballCountry(de.Nth(42)); got != "DE" {
		t.Errorf("EyeballCountry = %s", got)
	}
	if got := w.EyeballCountry(mustIP(t, "16.0.0.1")); got != "" {
		t.Errorf("server IP EyeballCountry = %s, want empty", got)
	}
}

func TestRTTModelPhysicalBound(t *testing.T) {
	var m RTTModel
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		rtt := m.Measure(rng, "DE", "US")
		if rtt < m.MinPossible("DE", "US") {
			t.Fatalf("RTT %f below physical minimum %f", rtt, m.MinPossible("DE", "US"))
		}
	}
	// Close countries must generally measure lower than far ones.
	var nearSum, farSum float64
	for i := 0; i < 100; i++ {
		nearSum += m.Measure(rng, "DE", "NL")
		farSum += m.Measure(rng, "DE", "JP")
	}
	if nearSum >= farSum {
		t.Errorf("DE-NL avg %.1f >= DE-JP avg %.1f", nearSum/100, farSum/100)
	}
}

func TestRTTUnknownCountry(t *testing.T) {
	var m RTTModel
	rng := rand.New(rand.NewSource(2))
	if rtt := m.Measure(rng, "DE", "??"); rtt < 50 {
		t.Errorf("unknown country RTT %f suspiciously low", rtt)
	}
	if m.MinPossible("DE", "??") != 0 {
		t.Error("unknown country MinPossible should be 0")
	}
}

// TestRTTByIndexMatchesFormula pins Measure, MeasureAt, MinPossible and
// MinPossibleAt to the model's formula over every country pair and the
// unknown-country rules, for the default and an explicit parameter set.
func TestRTTByIndexMatchesFormula(t *testing.T) {
	all := geodata.AllCountries()
	for _, tc := range []struct {
		m                         RTTModel
		stretch, lastMile, jitter float64
	}{
		{RTTModel{}, 1.3, 4, 6},
		{RTTModel{LastMileMs: 2.5, JitterMs: 11, PathStretch: 1.9}, 1.9, 2.5, 11},
	} {
		byCode, byIndex, want := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		check := func(from, to geodata.Country, i, j int, d, floor float64) {
			t.Helper()
			w := geodata.MinRTTms(d)*tc.stretch + tc.lastMile + want.Float64()*tc.jitter
			if got := tc.m.Measure(byCode, from, to); got != w {
				t.Fatalf("%+v: Measure(%q, %q) = %v, want %v", tc.m, from, to, got, w)
			}
			if got := tc.m.MeasureAt(byIndex, i, j); got != w {
				t.Fatalf("%+v: MeasureAt(%d, %d) = %v, want %v", tc.m, i, j, got, w)
			}
			if got := tc.m.MinPossible(from, to); got != floor {
				t.Fatalf("MinPossible(%q, %q) = %v, want %v", from, to, got, floor)
			}
			if got := tc.m.MinPossibleAt(i, j); got != floor {
				t.Fatalf("MinPossibleAt(%d, %d) = %v, want %v", i, j, got, floor)
			}
		}
		for i, a := range all {
			for j, b := range all {
				d := geodata.HaversineKm(a.Lat, a.Lon, b.Lat, b.Lon)
				check(a.Code, b.Code, i, j, d, geodata.MinRTTms(d))
			}
			// Unknown countries measure as a 9000 km path with no floor.
			check(a.Code, "??", i, -1, 9000, 0)
			check("??", a.Code, -1, i, 9000, 0)
		}
	}
}

func TestOrgKindStrings(t *testing.T) {
	kinds := []OrgKind{KindMajorAdTech, KindAdTech, KindExchange, KindCDN, KindWidget, KindHoster}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d string %q empty or duplicate", k, s)
		}
		seen[s] = true
	}
	if !KindMajorAdTech.IsTracking() || !KindExchange.IsTracking() {
		t.Error("adtech kinds must be tracking")
	}
	if KindCDN.IsTracking() || KindWidget.IsTracking() || KindHoster.IsTracking() {
		t.Error("non-adtech kinds must not be tracking")
	}
}
