package classify

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"crossborder/internal/blocklist"
	"crossborder/internal/browser"
	"crossborder/internal/dns"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
	"crossborder/internal/webgraph"
)

var start = time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)

// rig builds graph + dns + lists + collector and runs a small simulation.
func rig(t *testing.T, seed int64, users []browser.CountryCount, visits int) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := webgraph.Build(rng, webgraph.Config{}.Scale(0.05))

	srv := dns.NewServer(nil)
	end := time.Date(2018, 1, 15, 0, 0, 0, 0, time.UTC)
	countries := []geodata.Country{"US", "DE", "NL", "GB", "IE", "FR"}
	ip := uint32(0x20000000)
	for _, s := range g.Services {
		for _, f := range s.FQDNs {
			srv.Register(f, s.Org, dns.PolicyNearest, 300*time.Second, []dns.ServerIP{
				{IP: netsim.IP(ip), Country: countries[int(ip)%len(countries)], From: start, To: end},
			})
			ip++
		}
	}

	elText, epText := blocklist.Generate(rng, g, blocklist.Coverage{})
	el, errs := blocklist.Parse("easylist", elText)
	if len(errs) != 0 {
		t.Fatalf("easylist: %v", errs)
	}
	ep, errs := blocklist.Parse("easyprivacy", epText)
	if len(errs) != 0 {
		t.Fatalf("easyprivacy: %v", errs)
	}

	sim := browser.NewSimulator(g, srv, browser.Config{VisitsPerUser: visits})
	return runSequential(t, g, el, ep, sim, seed, browser.MakeUsers(users))
}

// runSequential browses users on one goroutine into a one-shard
// collector and merges them in browsing order into a wide store: the
// sequential reference every parallel capture must reproduce.
func runSequential(t testing.TB, g *webgraph.Graph, el, ep *blocklist.List, sim *browser.Simulator, seed int64, users []*browser.User) *Dataset {
	t.Helper()
	sc := NewShardedCollector(g, el, ep, start, 1)
	sim.Run(seed, users, sc.Shard(0))
	ds, err := sc.FinalizeInto(users, NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestClassStrings(t *testing.T) {
	for _, c := range []Class{ClassClean, ClassABP, ClassSemiReferrer, ClassSemiKeyword} {
		if c.String() == "" || c.String() == "unknown" {
			t.Errorf("class %d has bad string", c)
		}
	}
	if ClassClean.IsTracking() {
		t.Error("clean must not be tracking")
	}
	if !ClassABP.IsTracking() || !ClassSemiReferrer.IsTracking() || !ClassSemiKeyword.IsTracking() {
		t.Error("tracking classes mis-labelled")
	}
	if ClassABP.IsSemi() || !ClassSemiReferrer.IsSemi() || !ClassSemiKeyword.IsSemi() {
		t.Error("IsSemi mis-labelled")
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	if got := in.ID(""); got != 0 {
		t.Errorf("empty string id = %d, want 0", got)
	}
	a := in.ID("a.com")
	if in.ID("a.com") != a {
		t.Error("re-interning must return same id")
	}
	b := in.ID("b.com")
	if a == b {
		t.Error("distinct strings share an id")
	}
	if in.Str(a) != "a.com" || in.Str(b) != "b.com" {
		t.Error("Str round trip failed")
	}
	if in.Str(9999) != "" {
		t.Error("out of range Str must return empty")
	}
	if _, ok := in.Lookup("missing"); ok {
		t.Error("Lookup missing must be !ok")
	}
	if in.Len() != 3 {
		t.Errorf("Len = %d", in.Len())
	}
}

func TestContainsKeyword(t *testing.T) {
	positives := []string{
		"https://x.com/usermatch?uid=1",
		"https://x.com/RTB/auction?a=1",
		"https://x.com/cookiesync?p=2",
		"https://track.x.com/a",
	}
	for _, u := range positives {
		if !containsKeyword(u) {
			t.Errorf("containsKeyword(%q) = false", u)
		}
	}
	if containsKeyword("https://static.cdn001.com/lib/main.js") {
		t.Error("clean URL flagged")
	}
}

func TestStageProgression(t *testing.T) {
	ds := rig(t, 1, []browser.CountryCount{{Country: "DE", Users: 4}, {Country: "ES", Users: 3}}, 40)
	var abp, semiRef, semiKw, clean int64
	for _, r := range ds.Rows() {
		switch r.Class {
		case ClassABP:
			abp++
		case ClassSemiReferrer:
			semiRef++
		case ClassSemiKeyword:
			semiKw++
		default:
			clean++
		}
	}
	if abp == 0 {
		t.Error("stage 1 caught nothing")
	}
	if semiRef == 0 {
		t.Error("stage 2 (referrer propagation) caught nothing")
	}
	if semiKw == 0 {
		t.Error("stage 3 (keyword heuristic) caught nothing")
	}
	if clean == 0 {
		t.Error("no clean flows at all")
	}
	total := abp + semiRef + semiKw
	// Table 2 shape: the semi stages add substantially to the list catch
	// (paper: +80% over ABP alone). Accept a broad band.
	ratio := float64(semiRef+semiKw) / float64(abp)
	if ratio < 0.25 || ratio > 2.5 {
		t.Errorf("semi/abp ratio = %.2f (abp=%d semi=%d), want the paper's roughly-doubling shape", ratio, abp, semiRef+semiKw)
	}
	_ = total
}

func TestClassifierAccuracy(t *testing.T) {
	ds := rig(t, 2, []browser.CountryCount{{Country: "DE", Users: 5}}, 40)
	acc := Score(ds)
	if p := acc.Precision(); p < 0.97 {
		t.Errorf("precision = %.4f, want near 1 (heuristics should not mark clean CDN traffic)", p)
	}
	if r := acc.Recall(); r < 0.80 {
		t.Errorf("recall = %.4f, want high (stages should recover most cascade flows)", r)
	}
}

func TestComputeTable2Consistency(t *testing.T) {
	ds := rig(t, 3, []browser.CountryCount{{Country: "DE", Users: 4}}, 30)
	t2 := ComputeTable2(ds)
	if t2.ABP.TotalRequests+t2.Semi.TotalRequests != t2.Total.TotalRequests {
		t.Errorf("ABP %d + Semi %d != Total %d",
			t2.ABP.TotalRequests, t2.Semi.TotalRequests, t2.Total.TotalRequests)
	}
	if t2.Total.FQDNs > t2.ABP.FQDNs+t2.Semi.FQDNs {
		t.Error("total FQDNs exceeds sum of parts")
	}
	if t2.Total.UniqueRequests > t2.Total.TotalRequests {
		t.Error("unique exceeds total")
	}
	if t2.ABP.TLDs == 0 || t2.Semi.TLDs == 0 {
		t.Error("empty TLD catch")
	}
}

func TestPerSiteCounts(t *testing.T) {
	ds := rig(t, 4, []browser.CountryCount{{Country: "DE", Users: 3}}, 30)
	sites := PerSiteCounts(ds)
	if len(sites) == 0 {
		t.Fatal("no sites")
	}
	var totAll int64
	trackingDominates := 0
	for _, s := range sites {
		if s.All() != s.Clean+s.Tracking {
			t.Fatal("All() inconsistent")
		}
		totAll += s.All()
		if s.Tracking > s.Clean {
			trackingDominates++
		}
	}
	if totAll != int64(ds.Len()) {
		t.Errorf("site counts sum %d != rows %d", totAll, ds.Len())
	}
	// Fig 2 takeaway: on most sites tracking flows outnumber clean ones.
	if float64(trackingDominates)/float64(len(sites)) < 0.5 {
		t.Errorf("tracking dominates on only %d/%d sites", trackingDominates, len(sites))
	}
}

func TestTopTrackingTLDs(t *testing.T) {
	ds := rig(t, 5, []browser.CountryCount{{Country: "DE", Users: 4}}, 30)
	top := TopTrackingTLDs(ds, 20)
	if len(top) == 0 {
		t.Fatal("no tracking TLDs")
	}
	if len(top) > 20 {
		t.Errorf("len = %d > 20", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Total() > top[i-1].Total() {
			t.Error("not sorted by total descending")
		}
	}
	// The majors should rank near the top.
	foundMajor := false
	for _, s := range top[:min(5, len(top))] {
		if s.TLD == "googlesyndication.com" || s.TLD == "doubleclick.net" ||
			s.TLD == "google-analytics.com" || s.TLD == "facebook.net" ||
			s.TLD == "facebook.com" || s.TLD == "amazon-adsystem.com" || s.TLD == "google.com" {
			foundMajor = true
		}
	}
	if !foundMajor {
		t.Errorf("no major tracker in top 5: %+v", top[:min(5, len(top))])
	}
}

func TestComputeStats(t *testing.T) {
	users := []browser.CountryCount{{Country: "DE", Users: 3}, {Country: "FR", Users: 2}}
	ds := rig(t, 6, users, 25)
	st := ComputeStats(ds)
	if st.Users != 5 {
		t.Errorf("users = %d, want 5", st.Users)
	}
	if st.FirstPartyVisits != ds.Visits {
		t.Error("visits mismatch")
	}
	if st.FirstPartySites == 0 || st.FirstPartySites > st.FirstPartyVisits {
		t.Errorf("sites = %d vs visits %d", st.FirstPartySites, st.FirstPartyVisits)
	}
	if st.ThirdPartyReqs != int64(ds.Len()) {
		t.Error("request count mismatch")
	}
	if st.ThirdPartyFQDNs == 0 {
		t.Error("no third-party FQDNs")
	}
}

func TestRowAccessors(t *testing.T) {
	ds := rig(t, 7, []browser.CountryCount{{Country: "GR", Users: 2}}, 10)
	rows := ds.Rows()
	for _, r := range rows[:min(100, len(rows))] {
		if ds.Country(r) != "GR" {
			t.Fatalf("country = %s", ds.Country(r))
		}
		if ds.FQDN(r) == "" {
			t.Fatal("empty FQDN")
		}
		if ds.Publisher(r) == nil {
			t.Fatal("nil publisher")
		}
		tm := ds.Time(r)
		if tm.Before(start) || tm.After(start.AddDate(0, 0, 200)) {
			t.Fatalf("time %v out of range", tm)
		}
	}
}

func TestGroundTruthFlag(t *testing.T) {
	ds := rig(t, 8, []browser.CountryCount{{Country: "DE", Users: 2}}, 15)
	anyTrue, anyFalse := false, false
	for _, r := range ds.Rows() {
		if r.TruthTracking() {
			anyTrue = true
		} else {
			anyFalse = true
		}
	}
	if !anyTrue || !anyFalse {
		t.Error("ground truth flag must vary across rows")
	}
}

// shardRig rebuilds the rig substrate so the sharded-vs-sequential test
// can run the same simulation through both collector shapes.
func shardRig(t testing.TB, seed int64) (*webgraph.Graph, *dns.Server, *blocklist.List, *blocklist.List) {
	return shardRigScaled(t, seed, 0.05)
}

// shardRigScaled is shardRig over a graph of the given scale.
func shardRigScaled(t testing.TB, seed int64, scale float64) (*webgraph.Graph, *dns.Server, *blocklist.List, *blocklist.List) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := webgraph.Build(rng, webgraph.Config{}.Scale(scale))
	srv := dns.NewServer(nil)
	end := time.Date(2018, 1, 15, 0, 0, 0, 0, time.UTC)
	countries := []geodata.Country{"US", "DE", "NL", "GB", "IE", "FR"}
	ip := uint32(0x20000000)
	for _, s := range g.Services {
		for _, f := range s.FQDNs {
			srv.Register(f, s.Org, dns.PolicyNearest, 300*time.Second, []dns.ServerIP{
				{IP: netsim.IP(ip), Country: countries[int(ip)%len(countries)], From: start, To: end},
			})
			ip++
		}
	}
	elText, epText := blocklist.Generate(rng, g, blocklist.Coverage{})
	el, _ := blocklist.Parse("easylist", elText)
	ep, _ := blocklist.Parse("easyprivacy", epText)
	return g, srv, el, ep
}

func datasetsEqual(t *testing.T, a, b *Dataset) {
	t.Helper()
	ar, br := a.Rows(), b.Rows()
	if len(ar) != len(br) {
		t.Fatalf("row counts differ: %d vs %d", len(ar), len(br))
	}
	for i := range ar {
		if ar[i] != br[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, ar[i], br[i])
		}
	}
	if a.FQDNs.Len() != b.FQDNs.Len() {
		t.Fatalf("interner sizes differ: %d vs %d", a.FQDNs.Len(), b.FQDNs.Len())
	}
	for id := 0; id < a.FQDNs.Len(); id++ {
		if a.FQDNs.Str(uint32(id)) != b.FQDNs.Str(uint32(id)) {
			t.Fatalf("interner id %d: %q vs %q", id, a.FQDNs.Str(uint32(id)), b.FQDNs.Str(uint32(id)))
		}
	}
	if len(a.Countries) != len(b.Countries) {
		t.Fatalf("country tables differ in size")
	}
	for i := range a.Countries {
		if a.Countries[i] != b.Countries[i] {
			t.Fatalf("country id %d: %s vs %s", i, a.Countries[i], b.Countries[i])
		}
	}
	if len(a.Publishers) != len(b.Publishers) {
		t.Fatalf("publisher tables differ in size")
	}
	for i := range a.Publishers {
		if a.Publishers[i] != b.Publishers[i] {
			t.Fatalf("publisher id %d differs", i)
		}
	}
	if a.Visits != b.Visits {
		t.Fatalf("visits differ: %d vs %d", a.Visits, b.Visits)
	}
}

// TestShardedMergeMatchesSequential is the shard/merge contract at the
// classify level: a parallel capture merged in user order must be
// byte-identical to the one-goroutine capture.
func TestShardedMergeMatchesSequential(t *testing.T) {
	g, srv, el, ep := shardRig(t, 11)
	users := browser.MakeUsers([]browser.CountryCount{{Country: "DE", Users: 4}, {Country: "ES", Users: 3}})
	sim := browser.NewSimulator(g, srv, browser.Config{VisitsPerUser: 20})

	seqDS := runSequential(t, g, el, ep, sim, 5, users)

	const workers = 3
	sc := NewShardedCollector(g, el, ep, start, workers)
	sim.RunWorkers(5, users, workers, func(w int) []browser.Sink {
		return []browser.Sink{sc.Shard(w)}
	})
	parDS, err := sc.FinalizeInto(users, NewMemStore())
	if err != nil {
		t.Fatal(err)
	}

	datasetsEqual(t, seqDS, parDS)
}

// TestKeywordMatcherMatchesNaive cross-checks the Aho-Corasick scan
// against the original ToLower+Contains loop on adversarial and random
// inputs.
func TestKeywordMatcherMatchesNaive(t *testing.T) {
	naive := func(url string) bool {
		l := strings.ToLower(url)
		for _, k := range Keywords {
			if strings.Contains(l, k) {
				return true
			}
		}
		return false
	}
	fixed := []string{
		"", "https://x.com/", "https://sync.dmp01.com/cookiesync?uid=1",
		"https://x.com/usermatc", "https://x.com/usermatchX", "USERMATCH",
		"https://x.com/sy", "SyNc", "rtb", "r-t-b", "xxrtbxx",
		"https://x.com/cookiesyn c", "trac", "track", "/co/llect",
		"https://x.com/adser/v", "pixel", "pi xel", "bi", "obid",
	}
	for _, u := range fixed {
		if got, want := containsKeyword(u), naive(u); got != want {
			t.Errorf("containsKeyword(%q) = %v, naive = %v", u, got, want)
		}
	}
	rng := rand.New(rand.NewSource(42))
	alphabet := "abcdefgHIJ/?.=&:%-_xyzSYNCrtbi"
	for i := 0; i < 5000; i++ {
		n := rng.Intn(40)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		u := string(b)
		if got, want := containsKeyword(u), naive(u); got != want {
			t.Fatalf("containsKeyword(%q) = %v, naive = %v", u, got, want)
		}
	}
	// Fragment-wise scanning must equal whole-string scanning.
	if keywordAC.matchParts("https://", "sync.x.com", "/a") != containsKeyword("https://sync.x.com/a") {
		t.Error("fragment scan diverges from whole-URL scan")
	}
}
