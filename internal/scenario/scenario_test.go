package scenario

import (
	"sort"
	"testing"
	"time"

	"crossborder/internal/browser"
	"crossborder/internal/core"
	"crossborder/internal/geodata"
)

// small builds a fast scenario shared across tests in this package.
var smallCache *Scenario

func small(t *testing.T) *Scenario {
	t.Helper()
	if smallCache == nil {
		smallCache = Build(Params{Seed: 1, Scale: 0.05, VisitsPerUser: 40})
	}
	return smallCache
}

func TestBuildWiring(t *testing.T) {
	s := small(t)
	if s.Graph == nil || s.World == nil || s.DNS == nil || s.PDNS == nil {
		t.Fatal("missing substrate")
	}
	if len(s.Users) == 0 || s.Dataset == nil || s.Dataset.Len() == 0 {
		t.Fatal("no dataset")
	}
	if s.Inventory == nil || s.Inventory.NumIPs() == 0 {
		t.Fatal("no tracker inventory")
	}
	if s.Identification == nil || s.Identification.Identified() == 0 {
		t.Fatal("no sensitive identification")
	}
}

func TestEveryServiceFQDNResolvable(t *testing.T) {
	s := small(t)
	zones := make(map[string]bool)
	for _, z := range s.DNS.Zones() {
		zones[z] = true
	}
	missing := 0
	for _, svc := range s.Graph.Services {
		for _, f := range svc.FQDNs {
			if !zones[f] {
				missing++
			}
		}
	}
	if missing > 0 {
		t.Errorf("%d FQDNs without DNS zones", missing)
	}
}

func TestZoneIPsBelongToOwnersDeployments(t *testing.T) {
	s := small(t)
	checked := 0
	for _, svc := range s.Graph.Services {
		if checked > 300 {
			break
		}
		for _, f := range svc.FQDNs {
			for _, sv := range s.DNS.Servers(f) {
				dep, ok := s.World.LocateIP(sv.IP)
				if !ok {
					t.Fatalf("zone %s server %s not in world", f, sv.IP)
				}
				if dep.Country != sv.Country {
					t.Fatalf("zone %s server %s country %s != deployment %s",
						f, sv.IP, sv.Country, dep.Country)
				}
			}
			checked++
		}
	}
}

func TestTrackerInventoryHasExtras(t *testing.T) {
	s := small(t)
	if s.Inventory.NumExtra() == 0 {
		t.Error("pDNS completion found no extra IPs; the +2.78% mechanism is dead")
	}
	frac := float64(s.Inventory.NumExtra()) / float64(s.Inventory.NumIPs())
	if frac > 0.25 {
		t.Errorf("extra IP fraction = %.3f; too many unobserved addresses", frac)
	}
}

func TestSharedInfraExists(t *testing.T) {
	s := small(t)
	shared := s.Inventory.SharedIPs(5)
	if len(shared) == 0 {
		t.Error("no shared cookie-sync IPs (Fig 5 population missing)")
	}
}

func TestDeterminism(t *testing.T) {
	a := Build(Params{Seed: 3, Scale: 0.02, VisitsPerUser: 10})
	b := Build(Params{Seed: 3, Scale: 0.02, VisitsPerUser: 10})
	ar, br := a.Dataset.Rows(), b.Dataset.Rows()
	if len(ar) != len(br) {
		t.Fatalf("row counts differ: %d vs %d", len(ar), len(br))
	}
	for i := range ar {
		if ar[i] != br[i] {
			t.Fatalf("row %d differs", i)
		}
	}
	if a.Inventory.NumIPs() != b.Inventory.NumIPs() {
		t.Error("inventories differ")
	}
}

func TestEU28ConfinementShape(t *testing.T) {
	// The headline result must hold even at small scale: under accurate
	// geolocation most EU28 tracking flows stay in EU28, and the US
	// share is minor; under MaxMind the picture flips toward the US.
	s := small(t)
	truthA := core.Analyze(s.Dataset, s.Truth)
	_, inEU, inEur, flows := truthA.RegionConfinement(core.EU28Origin)
	if flows == 0 {
		t.Fatal("no EU28 flows")
	}
	if inEU < 70 || inEU > 95 {
		t.Errorf("truth EU28 confinement = %.1f%%, want ~85%% (Fig 7b)", inEU)
	}
	if inEur < inEU {
		t.Error("Europe confinement below EU28 confinement")
	}

	mmA := core.Analyze(s.Dataset, s.MaxMind)
	_, mmEU, _, _ := mmA.RegionConfinement(core.EU28Origin)
	if mmEU >= inEU-15 {
		t.Errorf("MaxMind EU28 confinement = %.1f%% vs truth %.1f%%; the Fig 7 flip is missing", mmEU, inEU)
	}
}

func TestTrackingShare(t *testing.T) {
	s := small(t)
	share := s.TrackingShareOfRows()
	if share < 0.45 || share > 0.8 {
		t.Errorf("tracking share = %.3f, want ~0.61 (Table 1/2)", share)
	}
}

func TestFQDNWeights(t *testing.T) {
	s := small(t)
	ws := s.FQDNWeights()
	if len(ws) == 0 {
		t.Fatal("no weights")
	}
	for _, w := range ws[:min(50, len(ws))] {
		if w.Weight <= 0 || w.FQDN == "" {
			t.Fatalf("bad weight %+v", w)
		}
	}
	// The order is canonical (sorted by FQDN): the ISP synthesizer
	// samples positionally, so any dataset holding the same rows — batch
	// or cluster-merged — must hand it the same slice.
	if !sort.SliceIsSorted(ws, func(i, j int) bool { return ws[i].FQDN < ws[j].FQDN }) {
		t.Error("FQDNWeights not sorted by FQDN")
	}
}

func TestOrgClouds(t *testing.T) {
	s := small(t)
	if got := s.OrgClouds("pagead2.googlesyndication.com"); len(got) != 1 || got[0] != geodata.GoogleCloud {
		t.Errorf("google clouds = %v", got)
	}
	if got := s.OrgClouds("not-a-real-fqdn.example"); got != nil {
		t.Errorf("unknown fqdn clouds = %v", got)
	}
}

func TestStudyWindows(t *testing.T) {
	s := small(t)
	if !s.Start.Before(s.End) || !s.End.Before(s.ISPEnd) {
		t.Error("study windows out of order")
	}
	// Inventory bindings must remain valid at the June 2018 ISP snapshot.
	june := time.Date(2018, 6, 20, 12, 0, 0, 0, time.UTC)
	valid := 0
	ips := s.Inventory.IPs()
	for _, ip := range ips {
		if s.Inventory.IsTrackingIP(ip, june) {
			valid++
		}
	}
	if frac := float64(valid) / float64(len(ips)); frac < 0.5 {
		t.Errorf("only %.2f of tracker IPs valid at the June snapshot", frac)
	}
}

func TestMajorsCarrySubstantialTraffic(t *testing.T) {
	s := small(t)
	var major, total int64
	for _, r := range s.Dataset.Rows() {
		if !r.Class.IsTracking() {
			continue
		}
		total++
		if svc, ok := s.Graph.ServiceByFQDN(s.Dataset.FQDN(r)); ok && svc.Major {
			major++
		}
	}
	frac := float64(major) / float64(total)
	if frac < 0.08 || frac > 0.6 {
		t.Errorf("major share of tracking flows = %.3f, want substantial", frac)
	}
}

func TestSensitiveFlowShare(t *testing.T) {
	s := small(t)
	var sens, total int64
	for _, r := range s.Dataset.Rows() {
		if !r.Class.IsTracking() {
			continue
		}
		total++
		if _, ok := s.Identification.ByPublisher[s.Dataset.Publisher(r)]; ok {
			sens++
		}
	}
	frac := float64(sens) / float64(total)
	if frac < 0.005 || frac > 0.10 {
		t.Errorf("sensitive flow share = %.4f, want ~0.029 (Fig 9)", frac)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestScalePopulation(t *testing.T) {
	pop := []browser.CountryCount{{Country: "ES", Users: 40}, {Country: "SE", Users: 2}}
	half := scalePopulation(pop, 0.5)
	if half[0].Users != 20 {
		t.Errorf("ES scaled to %d, want 20", half[0].Users)
	}
	if half[1].Users < 1 {
		t.Error("small countries must keep at least one user")
	}
	same := scalePopulation(pop, 1.0)
	if same[0].Users != 40 {
		t.Error("scale 1 must not change the population")
	}
}

func TestOrgRank(t *testing.T) {
	cases := map[string]int{
		"dsp0012": 12, "adnet0700": 700, "google": 0, "xchg0000": 0, "chat003": 3,
	}
	for name, want := range cases {
		if got := orgRank(name); got != want {
			t.Errorf("orgRank(%s) = %d, want %d", name, got, want)
		}
	}
}

// datasetHash fingerprints everything the classification pipeline
// produced: the row slice, the interner tables, the country and
// publisher indexes, and the visit count.
func datasetHash(s *Scenario) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mixStr := func(str string) {
		for i := 0; i < len(str); i++ {
			h ^= uint64(str[i])
			h *= prime
		}
		mix(uint64(len(str)))
	}
	ds := s.Dataset
	for _, r := range ds.Rows() {
		mix(r.URLHash)
		mix(uint64(r.IP))
		mix(uint64(r.FQDN))
		mix(uint64(r.RefFQDN))
		mix(uint64(r.Publisher))
		mix(uint64(r.User))
		mix(uint64(r.Day))
		mix(uint64(r.Country))
		mix(uint64(r.Flags))
		mix(uint64(r.Class))
	}
	for id := 0; id < ds.FQDNs.Len(); id++ {
		mixStr(ds.FQDNs.Str(uint32(id)))
	}
	for _, c := range ds.Countries {
		mixStr(string(c))
	}
	for _, p := range ds.Publishers {
		mixStr(p.Domain)
	}
	mix(uint64(ds.Visits))
	return h
}

// TestWorkerCountInvariance is the PR's determinism contract: the
// finalized Dataset — and the experiment outputs derived from it — must
// hash identically whether the simulation ran sequentially or on a
// worker pool, because per-user RNG streams and the shard/merge step
// make the pipeline independent of scheduling.
func TestWorkerCountInvariance(t *testing.T) {
	p := Params{Seed: 5, Scale: 0.02, VisitsPerUser: 8}

	p.Workers = 1
	seq := Build(p)
	p.Workers = 4
	par := Build(p)

	if hs, hp := datasetHash(seq), datasetHash(par); hs != hp {
		t.Fatalf("dataset hash differs: sequential %x vs 4 workers %x", hs, hp)
	}
	if seq.Inventory.NumIPs() != par.Inventory.NumIPs() ||
		seq.Inventory.NumExtra() != par.Inventory.NumExtra() {
		t.Error("tracker inventories differ across worker counts")
	}

	// Per-table experiment outputs must agree too (core.Analyze itself
	// shards internally; its merge must also be order-insensitive).
	for _, svc := range []struct {
		name string
		a, b *core.Analysis
	}{
		{"truth", core.Analyze(seq.Dataset, seq.Truth), core.Analyze(par.Dataset, par.Truth)},
		{"maxmind", core.Analyze(seq.Dataset, seq.MaxMind), core.Analyze(par.Dataset, par.MaxMind)},
	} {
		ic1, eu1, eur1, n1 := svc.a.RegionConfinement(core.EU28Origin)
		ic2, eu2, eur2, n2 := svc.b.RegionConfinement(core.EU28Origin)
		if ic1 != ic2 || eu1 != eu2 || eur1 != eur2 || n1 != n2 {
			t.Errorf("%s confinement differs: (%v %v %v %v) vs (%v %v %v %v)",
				svc.name, ic1, eu1, eur1, n1, ic2, eu2, eur2, n2)
		}
	}
}

// TestWeightedPoolMatchesLinearScan pins the precomputed-cumulative
// picker to the draw semantics of the original subtract-scan.
func TestWeightedPoolMatchesLinearScan(t *testing.T) {
	linear := func(x int, pool []struct {
		c geodata.Country
		w int
	}) geodata.Country {
		for _, e := range pool {
			x -= e.w
			if x < 0 {
				return e.c
			}
		}
		return pool[len(pool)-1].c
	}
	for _, pool := range [][]struct {
		c geodata.Country
		w int
	}{euDCPool, hqPool} {
		p := newWeightedPool(pool)
		for x := 0; x < p.total; x++ {
			if got, want := p.countries[p.upperBound(x)], linear(x, pool); got != want {
				t.Fatalf("x=%d: picker %s, linear scan %s", x, got, want)
			}
		}
	}
}
