package geo

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// Probe is one active measurement vantage point (a RIPE Atlas probe).
type Probe struct {
	Country geodata.Country
}

// ProbeMesh is the global probe deployment. The RIPE Atlas footprint is
// dense in Europe (>5K probes), substantial in North America (>1K) and
// sparse elsewhere (§3.4); DefaultMesh reproduces those proportions.
type ProbeMesh struct {
	Probes []Probe
}

// DefaultMesh builds an ~11K-probe mesh with the Atlas-like distribution:
// probe count per country proportional to infrastructure density, with
// Europe over-represented.
func DefaultMesh() *ProbeMesh {
	var mesh ProbeMesh
	for _, c := range geodata.AllCountries() {
		weight := c.InfraDensity
		switch c.Continent {
		case geodata.EU28, geodata.RestOfEurope:
			weight *= 4 // Atlas's European density
		case geodata.NorthAmerica:
			weight *= 1
		default:
			weight = weight / 2
		}
		n := weight * 2
		if n < 2 {
			n = 2 // every country has at least a couple of probes
		}
		for i := 0; i < n; i++ {
			mesh.Probes = append(mesh.Probes, Probe{Country: c.Code})
		}
	}
	return &mesh
}

// IPMap emulates RIPE IPmap's active geolocation: for each target IP it
// tasks ~ProbesPerQuery probes, each probe measures RTT to the target and
// produces a location estimate (the candidate country whose expected RTT
// best explains the measurement, subject to the speed-of-light bound), and
// the coordinator majority-votes the estimates (§3.4).
//
// NewIPMap reads Mesh once and builds its probe tables from it; mutating
// the mesh afterwards is unsupported. The RTT model's fields are read per
// measurement, so they may be set after construction: the
// speed-of-light floors NewIPMap tabulates do not depend on them.
type IPMap struct {
	World *netsim.World
	Mesh  *ProbeMesh
	RTT   netsim.RTTModel
	// ProbesPerQuery is the number of probes tasked per IP (default 100,
	// as the paper reports).
	ProbesPerQuery int
	// Seed makes the probe sampling deterministic per IP.
	Seed int64

	// mu guards cache and inflight, and only them: measurements run
	// outside it.
	mu    sync.Mutex
	cache map[netsim.IP]Location
	// inflight holds the measurement under way for each IP missed but
	// not yet cached; other callers missing on that IP wait on it.
	inflight map[netsim.IP]*pendingLocate
	// measurements counts the measurements run (each IP's first miss).
	measurements atomic.Int64

	// candidates are the countries a probe may estimate, indexed by
	// geodata.Index (AllCountries order).
	candidates []geodata.Country
	// byFloor[r*len(candidates):][:len(candidates)] lists the candidates
	// in ascending (speed-of-light RTT floor, index) order for a probe in
	// country r, and floors holds their floors at the same positions.
	// Row len(candidates) serves probes in unknown countries, whose
	// floors are all 0.
	byFloor []int32
	floors  []float64
	// byCountry lists the mesh's probe indices grouped by candidate, in
	// mesh order within each group (int32 keeps it small on the
	// ~11K-probe default mesh); countryStart[c] is where candidate c's
	// group begins (countryStart[len(candidates)] == len(byCountry)).
	byCountry    []int32
	countryStart []int
	// pools[c] is the refinement pool for coarse country c.
	pools []refinePool
}

// refinePool is the set of probes IPmap refines with around one coarse
// country: every probe in a candidate country within 2500 km, in
// candidate order. cum[j] counts the probes of countries[0..j], so a draw
// x in [0, cum[len-1]) lands on the same probe as indexing the pool's
// concatenated probe list at x. A pool with no countries stands for the
// whole mesh (the sparse-region fallback).
type refinePool struct {
	countries []int
	cum       []int
}

// NewIPMap builds the active geolocator over the world's ground truth.
func NewIPMap(w *netsim.World, mesh *ProbeMesh) *IPMap {
	m := &IPMap{
		World:          w,
		Mesh:           mesh,
		ProbesPerQuery: 100,
		Seed:           42,
		cache:          make(map[netsim.IP]Location),
		inflight:       make(map[netsim.IP]*pendingLocate),
	}
	for _, c := range geodata.AllCountries() {
		m.candidates = append(m.candidates, c.Code)
	}
	n := len(m.candidates)

	// Group the probes by country with a stable counting sort.
	m.countryStart = make([]int, n+1)
	for _, p := range mesh.Probes {
		if c := indexOf(p.Country); c >= 0 {
			m.countryStart[c+1]++
		}
	}
	for c := 0; c < n; c++ {
		m.countryStart[c+1] += m.countryStart[c]
	}
	m.byCountry = make([]int32, m.countryStart[n])
	next := append([]int(nil), m.countryStart[:n]...)
	for i, p := range mesh.Probes {
		if c := indexOf(p.Country); c >= 0 {
			m.byCountry[next[c]] = int32(i)
			next[c]++
		}
	}

	m.byFloor = make([]int32, (n+1)*n)
	m.floors = make([]float64, (n+1)*n)
	floorOf := make([]float64, n)
	for r := 0; r <= n; r++ {
		from := r
		if r == n {
			from = -1
		}
		for c := range floorOf {
			floorOf[c] = m.RTT.MinPossibleAt(from, c)
		}
		m.setFloorRow(r, floorOf)
	}

	m.pools = make([]refinePool, n)
	for coarse := range m.pools {
		var pool refinePool
		total := 0
		for c := 0; c < n; c++ { // candidate order is deterministic
			k := m.countryStart[c+1] - m.countryStart[c]
			if k > 0 && geodata.DistanceKmAt(c, coarse) <= 2500 {
				total += k
				pool.countries = append(pool.countries, c)
				pool.cum = append(pool.cum, total)
			}
		}
		if total >= 20 {
			m.pools[coarse] = pool
		}
	}
	return m
}

// setFloorRow fills row r of byFloor and floors from floorOf, the row's
// speed-of-light floors in candidate order.
func (m *IPMap) setFloorRow(r int, floorOf []float64) {
	n := len(m.candidates)
	row := m.byFloor[r*n : r*n+n]
	for c := range row {
		row[c] = int32(c)
	}
	slices.SortStableFunc(row, func(a, b int32) int { return cmp.Compare(floorOf[a], floorOf[b]) })
	for j, c := range row {
		m.floors[r*n+j] = floorOf[c]
	}
}

// Name implements Service.
func (m *IPMap) Name() string { return "ripe-ipmap" }

// pendingLocate is one IP's measurement under way: done closes once
// loc and ok hold its result.
type pendingLocate struct {
	done chan struct{}
	loc  Location
	ok   bool
}

// Locate implements Service. Results are cached; the measurement for a
// given IP is deterministic under the configured seed, and runs once
// even when several goroutines miss on the IP at the same time: the
// first measures, the others wait for its result.
func (m *IPMap) Locate(ip netsim.IP) (Location, bool) {
	m.mu.Lock()
	if loc, ok := m.cache[ip]; ok {
		m.mu.Unlock()
		return loc, true
	}
	if p, ok := m.inflight[ip]; ok {
		m.mu.Unlock()
		<-p.done
		return p.loc, p.ok
	}
	p := &pendingLocate{done: make(chan struct{})}
	m.inflight[ip] = p
	m.mu.Unlock()

	if truthCountry, ok := m.truthCountry(ip); ok {
		m.measurements.Add(1)
		p.loc, p.ok = m.measure(ip, truthCountry), true
	}

	m.mu.Lock()
	if p.ok {
		m.cache[ip] = p.loc
	}
	delete(m.inflight, ip)
	m.mu.Unlock()
	close(p.done)
	return p.loc, p.ok
}

func (m *IPMap) truthCountry(ip netsim.IP) (geodata.Country, bool) {
	if d, ok := m.World.LocateIP(ip); ok {
		return d.Country, true
	}
	if c := m.World.EyeballCountry(ip); c != "" {
		return c, true
	}
	return "", false
}

// Vote is one probe's reply.
type Vote struct {
	Probe    Probe
	RTTms    float64
	Estimate geodata.Country
}

// MeasureVotes runs the per-probe estimation for an IP and returns the
// raw votes; Locate uses the majority. Exposed for the agreement analysis
// and tests.
func (m *IPMap) MeasureVotes(ip netsim.IP) ([]Vote, bool) {
	truth, ok := m.truthCountry(ip)
	if !ok {
		return nil, false
	}
	var votes []Vote
	m.votes(ip, truth, func(probe int, rttMs float64, estimate int) {
		votes = append(votes, Vote{Probe: m.Mesh.Probes[probe], RTTms: rttMs, Estimate: m.candidates[estimate]})
	})
	return votes, true
}

// votes runs one IP's measurement and hands each refinement probe's
// reply to vote: the probe's mesh index, its RTT and the candidate index
// of its estimate.
func (m *IPMap) votes(ip netsim.IP, truthCountry geodata.Country, vote func(probe int, rttMs float64, estimate int)) {
	truth := indexOf(truthCountry)
	// Per-IP deterministic RNG: same IP, same probes, same jitter. The
	// stream is rand.NewSource's, seeded without its serial chain.
	src := new(lfSource)
	src.Seed(m.Seed ^ int64(ip)*0x9e3779b9)
	rng := rand.New(src)
	k := m.ProbesPerQuery
	if k <= 0 {
		k = 100
	}
	probes := len(m.Mesh.Probes)

	// Phase 1 — coarse localization: a couple dozen random probes
	// measure; the country of the minimum-RTT probe anchors the region.
	coarse := truth // fallback, only when mesh is empty
	bestRTT := -1.0
	for i := 0; i < 25 && probes > 0; i++ {
		from := indexOf(m.Mesh.Probes[rng.Intn(probes)].Country)
		rtt := m.minRTT(rng, from, truth)
		if bestRTT < 0 || rtt < bestRTT {
			coarse, bestRTT = from, rtt
		}
	}

	// Phase 2 — refinement: IPmap tasks probes near the presumed
	// location. Sample k probes from countries within 2500 km of the
	// coarse country; fall back to the whole mesh if the region is sparse
	// or the coarse country is unknown.
	var pool refinePool
	if coarse >= 0 {
		pool = m.pools[coarse]
	}
	for i := 0; i < k; i++ {
		var probe, from int
		if len(pool.countries) == 0 {
			probe = rng.Intn(probes)
			from = indexOf(m.Mesh.Probes[probe].Country)
		} else {
			x := rng.Intn(pool.cum[len(pool.cum)-1])
			j := sort.SearchInts(pool.cum, x+1)
			if j > 0 {
				x -= pool.cum[j-1]
			}
			from = pool.countries[j]
			probe = int(m.byCountry[m.countryStart[from]+x])
		}
		rtt := m.minRTT(rng, from, truth)
		vote(probe, rtt, m.estimate(from, rtt))
	}
}

// indexOf returns c's candidate index (geodata.Index), -1 for a country
// geodata does not know.
func indexOf(c geodata.Country) int {
	if i, ok := geodata.Index(c); ok {
		return i
	}
	return -1
}

// minRTT is a probe's measurement: the minimum of three pings, the
// standard way active geolocation suppresses queueing jitter. Countries
// are candidate indices, -1 for unknown.
func (m *IPMap) minRTT(rng *rand.Rand, from, to int) float64 {
	best := m.RTT.MeasureAt(rng, from, to)
	for i := 0; i < 2; i++ {
		if r := m.RTT.MeasureAt(rng, from, to); r < best {
			best = r
		}
	}
	return best
}

// estimate implements one probe's reasoning: among candidate countries
// whose speed-of-light minimum does not exceed the measured RTT, pick the
// one whose expected RTT best matches the measurement, ties going to the
// smallest candidate index. from is the probe's candidate index (-1 for
// unknown) and the result is a candidate index. The probe's own country
// has a floor of 0 (an unknown country's whole row is 0), so some
// candidate always passes the filter.
//
// The row is in ascending floor order, so the admissible candidates are
// a prefix and their expected RTTs rise along it. Below the first
// candidate expected at or above the RTT (the crossing), the error falls
// toward the crossing; from the crossing on it rises. The best error is
// therefore next to the crossing, and its ties are the equal-error runs
// that end or start there.
func (m *IPMap) estimate(from int, rttMs float64) int {
	n := len(m.candidates)
	if from < 0 {
		from = n
	}
	floors := m.floors[from*n : from*n+n]
	byFloor := m.byFloor[from*n : from*n+n]
	// Expected minimum-of-pings RTT: propagation with path stretch plus
	// the last-mile floor and a small residual-jitter allowance.
	expected := func(j int) float64 { return floors[j]*1.3 + 5.5 }
	errAt := func(j int) float64 {
		err := expected(j) - rttMs
		if err < 0 {
			err = -err
		}
		return err
	}

	// admissible: the prefix of floors <= rttMs.
	lo, hi := 0, n
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); floors[mid] <= rttMs {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	admissible := lo
	if admissible == 0 {
		return 0 // physically impossible everywhere; not reached for rttMs >= 0
	}
	// crossing: the first admissible position expected at or above rttMs.
	lo, hi = 0, admissible
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); expected(mid) < rttMs {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	crossing := lo

	// [first, end) covers the positions holding the best error.
	first, end := crossing, crossing
	var below, above float64
	if crossing > 0 {
		below = errAt(crossing - 1)
	}
	if crossing < admissible {
		above = errAt(crossing)
	}
	if crossing > 0 && (crossing == admissible || below <= above) {
		first = crossing - 1
		for first > 0 && errAt(first-1) == below {
			first--
		}
	}
	if crossing < admissible && (crossing == 0 || above <= below) {
		end = crossing + 1
		for end < admissible && errAt(end) == above {
			end++
		}
	}
	best := byFloor[first]
	for _, c := range byFloor[first+1 : end] {
		best = min(best, c)
	}
	return int(best)
}

// measure majority-votes the probes' estimates: the most votes wins, ties
// going to the smaller country code.
func (m *IPMap) measure(ip netsim.IP, truth geodata.Country) Location {
	counts := make([]int, len(m.candidates))
	m.votes(ip, truth, func(_ int, _ float64, estimate int) { counts[estimate]++ })
	var winner geodata.Country
	bestN := 0
	for c, n := range counts {
		if n > bestN || (n == bestN && n > 0 && m.candidates[c] < winner) {
			winner, bestN = m.candidates[c], n
		}
	}
	return locOf(winner)
}
