package geo

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// refProbesByCountry groups a mesh's probe indices by country, in mesh
// order: the index the per-call geolocator kept.
func refProbesByCountry(mesh *ProbeMesh) map[geodata.Country][]int {
	by := make(map[geodata.Country][]int)
	for i, p := range mesh.Probes {
		by[p.Country] = append(by[p.Country], i)
	}
	return by
}

// refVotes is the per-call geolocator the probe tables replaced, kept as
// the oracle: it recomputes every distance and speed-of-light floor
// through the country-keyed geodata and netsim APIs and rebuilds the
// refinement pool for every IP.
func refVotes(m *IPMap, byCountry map[geodata.Country][]int, ip netsim.IP) ([]Vote, bool) {
	truth, ok := m.truthCountry(ip)
	if !ok {
		return nil, false
	}
	var cands []geodata.Country
	for _, c := range geodata.AllCountries() {
		cands = append(cands, c.Code)
	}
	minRTT := func(rng *rand.Rand, from, to geodata.Country) float64 {
		best := m.RTT.Measure(rng, from, to)
		for i := 0; i < 2; i++ {
			if r := m.RTT.Measure(rng, from, to); r < best {
				best = r
			}
		}
		return best
	}
	floors := make([]float64, len(cands))
	estimate := func(p Probe, rttMs float64) geodata.Country {
		for c, cand := range cands {
			floors[c] = m.RTT.MinPossible(p.Country, cand)
		}
		if c := refEstimate(floors, rttMs); c >= 0 {
			return cands[c]
		}
		return p.Country
	}

	rng := rand.New(rand.NewSource(m.Seed ^ int64(ip)*0x9e3779b9))
	k := m.ProbesPerQuery
	if k <= 0 {
		k = 100
	}
	coarse := truth
	bestRTT := -1.0
	for i := 0; i < 25 && len(m.Mesh.Probes) > 0; i++ {
		p := m.Mesh.Probes[rng.Intn(len(m.Mesh.Probes))]
		rtt := minRTT(rng, p.Country, truth)
		if bestRTT < 0 || rtt < bestRTT {
			coarse, bestRTT = p.Country, rtt
		}
	}
	var regional []int
	for _, c := range cands {
		if d := geodata.DistanceKm(c, coarse); d >= 0 && d <= 2500 {
			regional = append(regional, byCountry[c]...)
		}
	}
	if len(regional) < 20 {
		regional = regional[:0]
		for i := range m.Mesh.Probes {
			regional = append(regional, i)
		}
	}
	votes := make([]Vote, 0, k)
	for i := 0; i < k; i++ {
		p := m.Mesh.Probes[regional[rng.Intn(len(regional))]]
		rtt := minRTT(rng, p.Country, truth)
		votes = append(votes, Vote{Probe: p, RTTms: rtt, Estimate: estimate(p, rtt)})
	}
	return votes, true
}

// refEstimate is the linear-scan probe estimate the sorted floor tables
// replaced: floors[c] is the speed-of-light floor from the probe to
// candidate c, and the result is the first candidate, in index order,
// whose expected RTT is nearest rttMs among those whose floor does not
// exceed it; -1 if none does.
func refEstimate(floors []float64, rttMs float64) int {
	best, bestErr := -1, -1.0
	for c, minPossible := range floors {
		if minPossible > rttMs {
			continue
		}
		expected := minPossible*1.3 + 5.5
		err := expected - rttMs
		if err < 0 {
			err = -err
		}
		if bestErr < 0 || err < bestErr {
			best, bestErr = c, err
		}
	}
	return best
}

// refMajority is the oracle's vote: most votes, ties to the smaller code.
func refMajority(votes []Vote) geodata.Country {
	counts := make(map[geodata.Country]int)
	for _, v := range votes {
		counts[v.Estimate]++
	}
	var winner geodata.Country
	bestN := -1
	for c, n := range counts {
		if n > bestN || (n == bestN && c < winner) {
			winner, bestN = c, n
		}
	}
	return winner
}

// oracleWorld extends buildWorld with an eyeball block in every known
// country and a server and eyeball block in a country geodata does not
// know, so a truth country can be unknown.
func oracleWorld(t testing.TB) (*netsim.World, []netsim.IP) {
	t.Helper()
	w, ips := buildWorld(t)
	w.Deploy(w.Org("acme-dsp"), "XX", "", 24)
	w.Freeze()
	for _, d := range w.Deployments(w.Org("acme-dsp")) {
		if d.Country == "XX" {
			ips = append(ips, d.Block.Nth(1), d.Block.Nth(2))
		}
	}
	for _, c := range geodata.AllCountries() {
		ips = append(ips, w.EyeballBlock(c.Code).Nth(9))
	}
	ips = append(ips, w.EyeballBlock("XX").Nth(3))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		ips = append(ips, netsim.IP(rng.Uint32()))
	}
	return w, ips
}

// assertMatchesOracle checks MeasureVotes and Locate against refVotes
// vote for vote on every IP.
func assertMatchesOracle(t *testing.T, m *IPMap, ips []netsim.IP) {
	t.Helper()
	byCountry := refProbesByCountry(m.Mesh)
	located := 0
	for _, ip := range ips {
		want, wantOK := refVotes(m, byCountry, ip)
		got, gotOK := m.MeasureVotes(ip)
		if gotOK != wantOK {
			t.Fatalf("%s: MeasureVotes ok=%v, oracle ok=%v", ip, gotOK, wantOK)
		}
		loc, locOK := m.Locate(ip)
		if locOK != wantOK {
			t.Fatalf("%s: Locate ok=%v, oracle ok=%v", ip, locOK, wantOK)
		}
		if !wantOK {
			continue
		}
		located++
		if len(got) != len(want) {
			t.Fatalf("%s: %d votes, oracle has %d", ip, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: vote %d = %+v, oracle %+v", ip, i, got[i], want[i])
			}
		}
		if w := locOf(refMajority(want)); loc != w {
			t.Fatalf("%s: Locate = %+v, oracle majority %+v", ip, loc, w)
		}
	}
	if located == 0 {
		t.Fatal("no IP was located")
	}
}

func TestIPMapMatchesOracle(t *testing.T) {
	w, ips := oracleWorld(t)
	// Mostly probes in countries geodata does not know: the all-zero
	// speed-of-light row, and (for targets in unknown countries, where
	// every probe measures the same 9000 km path) an unknown coarse
	// country, beside dense DE and US pools.
	withUnknown := &ProbeMesh{}
	for i := 0; i < 60; i++ {
		withUnknown.Probes = append(withUnknown.Probes, Probe{"XX"})
		if i%12 == 0 {
			withUnknown.Probes = append(withUnknown.Probes, Probe{"ZZ"})
		}
		if i%2 == 0 {
			withUnknown.Probes = append(withUnknown.Probes, Probe{"DE"}, Probe{"US"})
		}
	}
	// Fewer than 20 probes in every region: each refinement falls back to
	// the whole mesh.
	sparse := &ProbeMesh{}
	for _, c := range []geodata.Country{"US", "JP", "BR", "AU", "ZA", "DE", "XX"} {
		sparse.Probes = append(sparse.Probes, Probe{c}, Probe{c})
	}
	// Both pool kinds in one mesh, at the threshold: JP's region holds
	// exactly 20 probes (a pool), AU's 19 (the whole-mesh fallback).
	mixed := &ProbeMesh{}
	for i := 0; i < 30; i++ {
		mixed.Probes = append(mixed.Probes, Probe{"DE"})
		if i < 20 {
			mixed.Probes = append(mixed.Probes, Probe{"JP"})
		}
		if i < 19 {
			mixed.Probes = append(mixed.Probes, Probe{"AU"})
		}
		if i%10 == 0 {
			mixed.Probes = append(mixed.Probes, Probe{"NL"})
		}
	}

	for _, tc := range []struct {
		name  string
		mesh  *ProbeMesh
		rtt   netsim.RTTModel
		seed  int64
		perIP int
	}{
		{name: "default", mesh: DefaultMesh()},
		{name: "custom-rtt-model", mesh: DefaultMesh(),
			rtt: netsim.RTTModel{LastMileMs: 2.5, JitterMs: 14, PathStretch: 1.7}, seed: 9, perIP: 60},
		{name: "unknown-probe-countries", mesh: withUnknown, seed: 3},
		{name: "sparse-fallback", mesh: sparse},
		{name: "mixed-pools", mesh: mixed, rtt: netsim.RTTModel{JitterMs: 25}, perIP: 130},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewIPMap(w, tc.mesh)
			m.RTT = tc.rtt
			if tc.seed != 0 {
				m.Seed = tc.seed
			}
			if tc.perIP != 0 {
				m.ProbesPerQuery = tc.perIP
			}
			assertMatchesOracle(t, m, ips)
		})
	}
}

// TestIPMapEstimateMatchesScan checks the binary-searched estimate
// against refEstimate on every probe-country row, the unknown-country row
// included, with floors from the country-keyed netsim API, and on
// synthetic rows (see below).
func TestIPMapEstimateMatchesScan(t *testing.T) {
	m := NewIPMap(netsim.NewWorld(), &ProbeMesh{})
	var cands []geodata.Country
	for _, c := range geodata.AllCountries() {
		cands = append(cands, c.Code)
	}
	n := len(cands)
	rng := rand.New(rand.NewSource(11))
	for from := -1; from < n; from++ {
		probe := geodata.Country("XX")
		if from >= 0 {
			probe = cands[from]
		}
		floors := make([]float64, n)
		for c, cand := range cands {
			floors[c] = m.RTT.MinPossible(probe, cand)
		}
		assertEstimateMatchesScan(t, m, from, floors, rng)
	}

	// geodata's distances never give two candidates distinct floors with
	// the same expected RTT (1.3·floor + 5.5 rounds them together), so
	// the unknown-country row is overwritten with floors that do, the
	// larger floor at the smaller index. Ties between them need the
	// equal-error runs on both sides of the crossing.
	for trial := 0; trial < 20; trial++ {
		floors := make([]float64, n) // floors[n-1] stays 0: some candidate is always admissible
		for c := 0; c+2 < n; c += 2 {
			f := rng.Float64() * 40
			if trial%2 == 0 {
				f = float64(rng.Intn(4)) // repeated floors
			}
			floors[c], floors[c+1] = math.Nextafter(f, math.Inf(1)), f
			if f*1.3+5.5 != floors[c]*1.3+5.5 {
				floors[c] = f
			}
		}
		m.setFloorRow(n, floors)
		assertEstimateMatchesScan(t, m, -1, floors, rng)
	}
}

// assertEstimateMatchesScan compares estimate on the row of probe
// country from with refEstimate over floors, the row's floors in
// candidate order. The inputs are every floor and every expected RTT
// with both float neighbours (where the admissible prefix and the
// crossing move), every midpoint between two candidates' expected RTTs
// with its neighbours (error ties the random RTTs of a measurement
// almost never hit), and 10⁵ random RTTs.
func assertEstimateMatchesScan(t *testing.T, m *IPMap, from int, floors []float64, rng *rand.Rand) {
	t.Helper()
	maxExpected := 0.0
	var rtts []float64
	near := func(x float64) {
		rtts = append(rtts, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	for a, fa := range floors {
		maxExpected = max(maxExpected, fa*1.3+5.5)
		near(fa)
		near(fa*1.3 + 5.5)
		for _, fb := range floors[a+1:] {
			near((fa*1.3 + 5.5 + fb*1.3 + 5.5) / 2)
		}
	}
	for i := 0; i < 100_000; i++ {
		rtts = append(rtts, rng.Float64()*(maxExpected+20))
	}
	for _, rtt := range rtts {
		if rtt < 0 {
			continue // a measured RTT is at least the last-mile latency
		}
		want := refEstimate(floors, rtt)
		if want < 0 {
			t.Fatalf("row %d, rtt %v: no admissible candidate", from, rtt)
		}
		if got := m.estimate(from, rtt); got != want {
			t.Fatalf("row %d, rtt %v: estimate = %d (floor %v), scan %d (floor %v)", from, rtt, got, floors[got], want, floors[want])
		}
	}
}

// TestIPMapLocateMeasuresOnce has goroutines locate overlapping IP
// sets at GOMAXPROCS=2, pairs of them in the same order so that they
// miss on the same IPs at the same time: each locatable IP must be
// measured exactly once, and every answer must equal a single
// goroutine's.
func TestIPMapLocateMeasuresOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w, ips := oracleWorld(t)
	mesh := DefaultMesh()
	type answer struct {
		loc Location
		ok  bool
	}
	serial := NewIPMap(w, mesh)
	want := make(map[netsim.IP]answer)
	for _, ip := range ips {
		loc, ok := serial.Locate(ip)
		want[ip] = answer{loc, ok}
	}
	located := 0
	for _, a := range want {
		if a.ok {
			located++
		}
	}
	if n := serial.measurements.Load(); n != int64(located) {
		t.Fatalf("one goroutine measured %d times for %d locatable IPs", n, located)
	}

	m := NewIPMap(w, mesh)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			off := (g / 2) * len(ips) / (goroutines / 2)
			for k := range ips {
				ip := ips[(off+k)%len(ips)]
				loc, ok := m.Locate(ip)
				if (answer{loc, ok}) != want[ip] {
					errs <- ip.String()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for ip := range errs {
		t.Errorf("concurrent Locate(%s) differs from a single goroutine's", ip)
	}
	if n := m.measurements.Load(); n != int64(located) {
		t.Errorf("%d goroutines measured %d times for %d locatable IPs", goroutines, n, located)
	}
}

// BenchmarkIPMapLocateCold locates ~2,000 distinct IPs with a fresh
// IPMap per op, so no answer comes from the cache: table is the
// geolocator, oracle the per-call body it replaced.
func BenchmarkIPMapLocateCold(b *testing.B) {
	w := netsim.NewWorld()
	org := w.AddOrg("acme", netsim.KindAdTech, "US")
	var ips []netsim.IP
	for i, c := range geodata.AllCountries() {
		d := w.Deploy(org, c.Code, "", 24)
		for j := uint32(0); j < 16; j++ {
			ips = append(ips, d.Block.Nth(j))
		}
		for j := uint32(0); j < 17; j++ {
			ips = append(ips, w.EyeballBlock(c.Code).Nth(j+uint32(i)))
		}
	}
	w.Freeze()
	mesh := DefaultMesh()
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := NewIPMap(w, mesh)
			for _, ip := range ips {
				if _, ok := m.Locate(ip); !ok {
					b.Fatalf("missed %s", ip)
				}
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := NewIPMap(w, mesh)
			byCountry := refProbesByCountry(mesh)
			for _, ip := range ips {
				votes, ok := refVotes(m, byCountry, ip)
				if !ok {
					b.Fatalf("missed %s", ip)
				}
				_ = refMajority(votes)
			}
		}
	})
}
