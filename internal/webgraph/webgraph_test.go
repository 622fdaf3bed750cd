package webgraph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestETLDPlusOne(t *testing.T) {
	cases := map[string]string{
		"pagead2.googlesyndication.com": "googlesyndication.com",
		"googlesyndication.com":         "googlesyndication.com",
		"a.b.c.example.net":             "example.net",
		"www.example.co.uk":             "example.co.uk",
		"example.co.uk":                 "example.co.uk",
		"deep.sub.example.com.au":       "example.com.au",
		"localhost":                     "localhost",
		"Example.COM.":                  "example.com",
	}
	for in, want := range cases {
		if got := ETLDPlusOne(in); got != want {
			t.Errorf("ETLDPlusOne(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHostname(t *testing.T) {
	cases := map[string]string{
		"https://www.Example.com/path?q=1": "www.example.com",
		"http://a.b.c:8080/x":              "a.b.c",
		"user@host.com/path":               "host.com",
		"plain.host":                       "plain.host",
		"https://h.io#frag":                "h.io",
		"https://\u0130.com/ab":            "i.com",
	}
	for in, want := range cases {
		if got := Hostname(in); got != want {
			t.Errorf("Hostname(%q) = %q, want %q", in, got, want)
		}
	}
	// HostSpan locates the host in the URL as written, whatever length
	// lower-casing gives it.
	if start, end := HostSpan("https://\u0130.com/ab"); start != 8 || end != 14 {
		t.Errorf("HostSpan = [%d,%d), want [8,14)", start, end)
	}
}

func TestETLDPlusOneIsIdempotent(t *testing.T) {
	f := func(a, b uint8) bool {
		host := strings.ToLower(string(rune('a'+a%26))) + ".sub" + string(rune('a'+b%26)) + ".example.com"
		one := ETLDPlusOne(host)
		return ETLDPlusOne(one) == one
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopics(t *testing.T) {
	if len(SensitiveCategories()) != 12 {
		t.Fatalf("sensitive categories = %d, want 12 (Fig 9)", len(SensitiveCategories()))
	}
	for _, c := range SensitiveCategories() {
		if !IsSensitive(c) {
			t.Errorf("IsSensitive(%s) = false", c)
		}
		m := MaskingTopic(c)
		if IsSensitive(m) {
			t.Errorf("MaskingTopic(%s) = %s is itself sensitive", c, m)
		}
	}
	for _, g := range GeneralTopics() {
		if IsSensitive(g) {
			t.Errorf("general topic %s flagged sensitive", g)
		}
		if MaskingTopic(g) != g {
			t.Errorf("MaskingTopic(%s) changed a general topic", g)
		}
	}
}

func TestRoleProperties(t *testing.T) {
	tracking := []Role{RoleAdNetwork, RoleExchange, RoleDSP, RoleDMP, RoleAnalytics}
	for _, r := range tracking {
		if !r.IsTracking() {
			t.Errorf("%s must be tracking", r)
		}
	}
	for _, r := range []Role{RoleCDN, RoleWidget} {
		if r.IsTracking() {
			t.Errorf("%s must not be tracking", r)
		}
	}
	seen := map[string]bool{}
	for _, r := range []Role{RoleAdNetwork, RoleExchange, RoleDSP, RoleDMP, RoleAnalytics, RoleCDN, RoleWidget} {
		if s := r.String(); s == "" || seen[s] {
			t.Errorf("role %d string %q bad", r, s)
		} else {
			seen[s] = true
		}
	}
}

func smallGraph(t *testing.T, seed int64) *Graph {
	t.Helper()
	return Build(rand.New(rand.NewSource(seed)), Config{}.Scale(0.05))
}

func TestBuildDeterministic(t *testing.T) {
	g1 := smallGraph(t, 42)
	g2 := smallGraph(t, 42)
	if len(g1.Publishers) != len(g2.Publishers) || len(g1.Services) != len(g2.Services) {
		t.Fatal("same seed produced different sizes")
	}
	for i := range g1.Publishers {
		if g1.Publishers[i].Domain != g2.Publishers[i].Domain ||
			g1.Publishers[i].Weight != g2.Publishers[i].Weight {
			t.Fatalf("publisher %d differs between same-seed builds", i)
		}
	}
}

func TestBuildStructure(t *testing.T) {
	g := smallGraph(t, 7)
	if len(g.Publishers) == 0 || len(g.Services) == 0 {
		t.Fatal("empty graph")
	}
	// Every publisher embeds at least one tracking service and one CDN.
	for _, p := range g.Publishers {
		if len(p.AdSlots) == 0 && len(p.DirectTrackers) == 0 {
			t.Errorf("publisher %s has no tracking embeds", p.Domain)
		}
		if p.Weight <= 0 {
			t.Errorf("publisher %s weight %f", p.Domain, p.Weight)
		}
	}
	// FQDN index is consistent.
	for _, s := range g.Services {
		for _, f := range s.FQDNs {
			got, ok := g.ServiceByFQDN(f)
			if !ok || got != s {
				t.Errorf("FQDN %s index broken", f)
			}
		}
	}
	// Roles present.
	for _, r := range []Role{RoleAdNetwork, RoleExchange, RoleDSP, RoleDMP, RoleAnalytics, RoleCDN, RoleWidget} {
		if len(g.ServicesByRole(r)) == 0 {
			t.Errorf("no services with role %s", r)
		}
	}
}

func TestBuildMajors(t *testing.T) {
	g := smallGraph(t, 1)
	ga, ok := g.ServiceByFQDN("www.google-analytics.com")
	if !ok || ga.Org != "google" || !ga.Major {
		t.Error("google analytics service missing or mis-attributed")
	}
	fb, ok := g.ServiceByFQDN("connect.facebook.net")
	if !ok || fb.Org != "facebook" {
		t.Error("facebook pixel missing")
	}
	if s, _ := g.ServiceByFQDN("ad.doubleclick.net"); s == nil || s.Role != RoleExchange {
		t.Error("doubleclick must be an exchange")
	}
}

func TestSensitiveWeightShare(t *testing.T) {
	g := Build(rand.New(rand.NewSource(3)), Config{}.Scale(0.2))
	var sens, total float64
	nSens := 0
	for _, p := range g.Publishers {
		total += p.Weight
		if p.Sensitive != "" {
			sens += p.Weight
			nSens++
			if !IsSensitive(p.Sensitive) {
				t.Errorf("publisher %s sensitive topic %q not in the 12", p.Domain, p.Sensitive)
			}
		}
	}
	share := sens / total
	if share < 0.015 || share > 0.05 {
		t.Errorf("sensitive weight share = %.4f, want ~0.029", share)
	}
	if nSens == 0 {
		t.Fatal("no sensitive publishers built")
	}
	// All 12 categories represented.
	cats := map[Topic]bool{}
	for _, p := range g.Publishers {
		if p.Sensitive != "" {
			cats[p.Sensitive] = true
		}
	}
	if len(cats) != 12 {
		t.Errorf("only %d sensitive categories present, want 12", len(cats))
	}
}

func TestHealthDominatesSensitiveWeight(t *testing.T) {
	// Fig 9: health carries the largest flow share, gambling second.
	g := Build(rand.New(rand.NewSource(5)), Config{}.Scale(0.3))
	byCat := map[Topic]float64{}
	for _, p := range g.Publishers {
		if p.Sensitive != "" {
			byCat[p.Sensitive] += p.Weight
		}
	}
	if byCat[SensHealth] <= byCat[SensGambling] {
		t.Errorf("health %.5f <= gambling %.5f", byCat[SensHealth], byCat[SensGambling])
	}
	if byCat[SensGambling] <= byCat[SensPorn] {
		t.Errorf("gambling %.5f <= porn %.5f", byCat[SensGambling], byCat[SensPorn])
	}
}

func TestZipfPicker(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	z := newZipfPicker(100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.pick(rng)]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("rank 0 (%d) not more popular than rank 50 (%d)", counts[0], counts[50])
	}
	if counts[0] <= counts[10] {
		t.Errorf("rank 0 (%d) not more popular than rank 10 (%d)", counts[0], counts[10])
	}
}

func TestTotalWeightPositive(t *testing.T) {
	g := smallGraph(t, 11)
	if g.TotalWeight() <= 0 {
		t.Error("total weight must be positive")
	}
}

func TestFullScaleCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale build")
	}
	g := Build(rand.New(rand.NewSource(1)), Config{})
	if got := len(g.Publishers); got != 5693 {
		t.Errorf("publishers = %d, want 5693 (Table 1)", got)
	}
	// FQDN population in the right order of magnitude (Table 1: 19,298
	// third-party domains; Table 2: ~9.9K tracking FQDNs).
	var trackingFQDNs, cleanFQDNs int
	for _, s := range g.Services {
		if s.Role.IsTracking() {
			trackingFQDNs += len(s.FQDNs)
		} else {
			cleanFQDNs += len(s.FQDNs)
		}
	}
	if trackingFQDNs < 6000 || trackingFQDNs > 16000 {
		t.Errorf("tracking FQDNs = %d, want ~10K", trackingFQDNs)
	}
	if cleanFQDNs < 5000 || cleanFQDNs > 16000 {
		t.Errorf("clean FQDNs = %d, want ~9K", cleanFQDNs)
	}
}
