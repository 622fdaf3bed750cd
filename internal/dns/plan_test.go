package dns

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"time"

	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// TestPlanMatchesResolve is the Plan contract: for every policy, spill
// setting and GeoMapping shape, at the edges of the activity windows
// and outside them, a Plan's Picks return exactly Resolve's answers
// and errors, log the same resolutions, and consume the same draws —
// two rngs from one seed agree on their next Int63 afterwards.
func TestPlanMatchesResolve(t *testing.T) {
	policies := []Policy{PolicyNearest, PolicyContinent, PolicyHQ, PolicyRandom, PolicyWeighted, PolicyLatency, PolicyFailover}
	day := 24 * time.Hour
	// Staggered windows: bindings join and leave, so the active set
	// differs between the probe times.
	servers := []ServerIP{
		{IP: 0x0a000001, Country: "DE", Weight: 3, From: t0, To: tEnd},
		{IP: 0x0a000002, Country: "NL", Weight: 1, From: t0, To: mid},
		{IP: 0x0a000003, Country: "FR", From: mid, To: tEnd},
		{IP: 0x0a000004, Country: "US", Weight: 5, From: t0, To: tEnd},
		{IP: 0x0a000005, Country: "BR", Weight: 2, From: t0.Add(10 * day), To: tEnd},
		{IP: 0x0a000006, Country: "JP", Weight: 5, From: t0, To: mid},
		{IP: 0x0a000007, Country: "DE", Weight: 1, From: mid, To: tEnd.Add(-day)},
	}
	times := []time.Time{
		t0, mid, tEnd, tEnd.Add(-day), t0.Add(10 * day), // window edges
		t0.Add(-time.Hour), tEnd.Add(time.Hour), // outside every window
	}
	users := []geodata.Country{"DE", "NL", "FR", "CY", "US", "BR", "CN", "ZZ"}
	hashed := func(fqdn string, user geodata.Country, at time.Time) bool {
		h := fnv.New32a()
		fmt.Fprintf(h, "%s|%s|%d", fqdn, user, at.Unix()/86400)
		return h.Sum32()%2 == 0
	}
	geoMappings := map[string]func(string, geodata.Country, time.Time) bool{
		"nil":    nil,
		"true":   func(string, geodata.Country, time.Time) bool { return true },
		"false":  func(string, geodata.Country, time.Time) bool { return false },
		"hashed": hashed,
	}
	seed := int64(0)
	for _, policy := range policies {
		for _, spill := range []float64{0, 0.08} {
			for gmName, gm := range geoMappings {
				var logged []Resolution
				s := NewServer(func(r Resolution) { logged = append(logged, r) })
				s.Register("z.example", "z", policy, time.Minute, servers)
				s.Spill, s.GeoMapping = spill, gm
				s.Freeze()
				for _, fqdn := range []string{"z.example", "nx.example"} {
					for _, at := range times {
						for _, user := range users {
							seed++
							where := fmt.Sprintf("%s spill=%v geo=%s %s %s at %s", policy, spill, gmName, fqdn, user, at.Format(time.RFC3339))
							ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
							plan := s.Plan(fqdn, user, at)
							logged = logged[:0]
							var want, got []netsim.IP
							var wantErr, gotErr error
							for i := 0; i < 40; i++ {
								ip, err := s.Resolve(ra, fqdn, user, at)
								want, wantErr = append(want, ip), err
							}
							resolveLog := append([]Resolution(nil), logged...)
							logged = logged[:0]
							for i := 0; i < 40; i++ {
								ip, err := plan.Pick(rb)
								got, gotErr = append(got, ip), err
							}
							if gotErr != wantErr {
								t.Fatalf("%s: Pick error %v, Resolve error %v", where, gotErr, wantErr)
							}
							if !slices.Equal(got, want) {
								t.Fatalf("%s:\n Pick    %v\n Resolve %v", where, got, want)
							}
							if !slices.Equal(logged, resolveLog) {
								t.Fatalf("%s: Pick logged %d resolutions, Resolve %d", where, len(logged), len(resolveLog))
							}
							if a, b := ra.Int63(), rb.Int63(); a != b {
								t.Fatalf("%s: Resolve and Pick consumed different draws", where)
							}
						}
					}
				}
			}
		}
	}
}

// TestResolveDoesNotAllocate pins Resolve's hot path at zero
// allocations for every policy, spill included, on a small zone and on
// a zone whose staggered windows leave more than 32 bindings active.
func TestResolveDoesNotAllocate(t *testing.T) {
	countries := []geodata.Country{"DE", "NL", "US", "FR", "JP"}
	var wide []ServerIP
	for i := 0; i < 48; i++ {
		b := sv(0x0b000000+uint32(i), countries[i%len(countries)])
		b.From = t0.Add(time.Duration(i) * time.Hour)
		if i%4 == 3 {
			b.To = mid.Add(-time.Duration(i) * time.Hour) // gone by mid
		}
		wide = append(wide, b)
	}
	zones := map[string][]ServerIP{
		"small": {sv(0x0a000001, "DE"), sv(0x0a000002, "NL"), sv(0x0a000003, "US")},
		"wide":  wide,
	}
	for _, policy := range []Policy{PolicyNearest, PolicyContinent, PolicyHQ, PolicyRandom, PolicyWeighted, PolicyLatency, PolicyFailover} {
		for name, servers := range zones {
			s := NewServer(nil)
			s.Register("z.example", "z", policy, time.Minute, servers)
			s.Spill = 0.5
			s.Freeze()
			rng := rand.New(rand.NewSource(1))
			if n := testing.AllocsPerRun(200, func() {
				if _, err := s.Resolve(rng, "z.example", "FR", mid); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s zone, %s: Resolve allocates %.1f times per call", name, policy, n)
			}
		}
	}
}

// refResolve is the filter-and-copy resolver the compiled zones
// replaced, kept as their test oracle: it copies the bindings active
// at t into a stack buffer and applies each policy to the copies by
// country code.
func refResolve(s *Server, rng *rand.Rand, fqdn string, userCountry geodata.Country, t time.Time) (netsim.IP, error) {
	e, ok := s.zones[fqdn]
	if !ok {
		return 0, ErrNXDomain
	}
	var buf [32]ServerIP
	active := buf[:0]
	for _, sv := range e.servers {
		if sv.ActiveAt(t) {
			active = append(active, sv)
		}
	}
	if len(active) == 0 {
		return 0, ErrNoActiveServer
	}
	policy := e.policy
	if policy == PolicyNearest && spills(rng, s.Spill) {
		policy = PolicyContinent
	}
	localOK := true
	if policy == PolicyNearest && s.GeoMapping != nil {
		localOK = s.GeoMapping(fqdn, userCountry, t)
	}
	sel := refSelectFrom(policy, active, userCountry, localOK)
	ip := sel.draw(rng, active)
	if s.log != nil {
		s.log(Resolution{FQDN: fqdn, IP: ip, At: t})
	}
	return ip, nil
}

// refSelection is refResolve's policy outcome up to its draw: a fixed
// answer, Intn(n) over the copies m accepts, or Intn(total weight).
type refSelection struct {
	kind selKind
	ip   netsim.IP
	m    refMatcher
	n    int
}

// refMatcher filters the copies of a uniform draw by country code.
type refMatcher struct {
	by      matchBy
	country geodata.Country
	cont    geodata.Continent
}

func (m refMatcher) ok(sv *ServerIP) bool {
	switch m.by {
	case matchCountry:
		return sv.Country == m.country
	case matchContinent:
		return sameEurope(geodata.ContinentOf(sv.Country), m.cont)
	}
	return true
}

func (sel *refSelection) draw(rng *rand.Rand, active []ServerIP) netsim.IP {
	switch sel.kind {
	case selUniform:
		n := rng.Intn(sel.n)
		for i := range active {
			if sel.m.ok(&active[i]) {
				if n == 0 {
					return active[i].IP
				}
				n--
			}
		}
		panic("uniform draw out of range")
	case selWeighted:
		x := rng.Intn(sel.n)
		for i := range active {
			x -= weightOf(&active[i])
			if x < 0 {
				return active[i].IP
			}
		}
		panic("weighted draw out of range")
	}
	return sel.ip
}

func refSelectFrom(policy Policy, active []ServerIP, user geodata.Country, localOK bool) refSelection {
	fixed := func(ip netsim.IP) refSelection { return refSelection{kind: selFixed, ip: ip} }
	uniform := func(m refMatcher) (refSelection, bool) {
		n := 0
		for i := range active {
			if m.ok(&active[i]) {
				n++
			}
		}
		return refSelection{kind: selUniform, m: m, n: n}, n > 0
	}
	cont := geodata.ContinentOf(user)
	switch policy {
	case PolicyRandom:
		sel, _ := uniform(refMatcher{by: matchAll})
		return sel
	case PolicyWeighted:
		total := 0
		for i := range active {
			total += weightOf(&active[i])
		}
		return refSelection{kind: selWeighted, n: total}
	case PolicyLatency:
		best, bestRTT := 0, -1.0
		for i, sv := range active {
			d := geodata.DistanceKm(user, sv.Country)
			if d < 0 {
				d = 1e9
			}
			if rtt := geodata.MinRTTms(d); bestRTT < 0 || rtt < bestRTT {
				best, bestRTT = i, rtt
			}
		}
		return fixed(active[best].IP)
	case PolicyFailover:
		best := 0
		for i := 1; i < len(active); i++ {
			if active[i].Weight > active[best].Weight {
				best = i
			}
		}
		return fixed(active[best].IP)
	case PolicyHQ:
		return fixed(active[0].IP)
	case PolicyContinent:
		if sel, ok := uniform(refMatcher{by: matchContinent, cont: cont}); ok {
			return sel
		}
		return fixed(refNearest(active, user))
	default: // PolicyNearest
		if localOK {
			if sel, ok := uniform(refMatcher{by: matchCountry, country: user}); ok {
				return sel
			}
		}
		best, bestDist := -1, 0.0
		for i, sv := range active {
			if !localOK && sv.Country == user || !sameEurope(geodata.ContinentOf(sv.Country), cont) {
				continue
			}
			d := geodata.DistanceKm(user, sv.Country)
			if d < 0 {
				continue
			}
			if best == -1 || d < bestDist {
				best, bestDist = i, d
			}
		}
		if best >= 0 {
			return fixed(active[best].IP)
		}
		return fixed(refNearest(active, user))
	}
}

func refNearest(active []ServerIP, user geodata.Country) netsim.IP {
	best, bestDist := 0, -1.0
	for i, sv := range active {
		d := geodata.DistanceKm(user, sv.Country)
		if d < 0 {
			d = 1e9
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return active[best].IP
}

// hashedGeoMapping flips each (fqdn, user country, day) mapping by a
// hash, so the verdict changes with t between a zone's window edges.
func hashedGeoMapping(fqdn string, user geodata.Country, at time.Time) bool {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s|%s|%d", fqdn, user, at.Unix()/86400)
	return h.Sum32()%2 == 0
}

// oracleCountries mixes dense European and far-away countries with two
// codes geodata does not know; a binding and a user may share "XX".
var oracleCountries = []geodata.Country{"DE", "NL", "FR", "CY", "CH", "GB", "US", "BR", "JP", "AU", "XX", "ZZ"}

// randomZone returns 1-64 bindings with distinct IPs. Windows draw
// their ends from a small pool of shared instants half the time, so
// bindings join and leave together; some windows are one instant long
// and a few are inverted (never active).
func randomZone(rng *rand.Rand) []ServerIP {
	pool := make([]time.Time, 1+rng.Intn(6))
	for i := range pool {
		pool[i] = t0.Add(time.Duration(rng.Int63n(int64(tEnd.Sub(t0)))))
	}
	instant := func() time.Time {
		if rng.Intn(2) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return t0.Add(time.Duration(rng.Int63n(int64(tEnd.Sub(t0)))))
	}
	n := 1 + rng.Intn(64)
	ips := rng.Perm(1 << 16)[:n]
	out := make([]ServerIP, n)
	for i := range out {
		from, to := instant(), instant()
		switch {
		case rng.Intn(10) == 0:
			to = from
		case to.Before(from) && rng.Intn(8) != 0:
			from, to = to, from
		}
		out[i] = ServerIP{
			IP:      netsim.IP(0x0a000000 + ips[i]),
			Country: oracleCountries[rng.Intn(len(oracleCountries))],
			Weight:  rng.Intn(7) - 1,
			From:    from,
			To:      to,
		}
	}
	return out
}

// TestResolveMatchesOracle checks the compiled zones against the
// filter-and-copy oracle over random zones: for every policy, spill
// setting and GeoMapping shape, at every window edge, one nanosecond
// either side of it, and at random times inside and outside the
// windows, Resolve and Plan.Pick return refResolve's answer and error,
// log the same resolution, and consume the same draws.
func TestResolveMatchesOracle(t *testing.T) {
	policies := []Policy{PolicyNearest, PolicyContinent, PolicyHQ, PolicyRandom, PolicyWeighted, PolicyLatency, PolicyFailover}
	geoMappings := []struct {
		name string
		fn   func(string, geodata.Country, time.Time) bool
	}{
		{"nil", nil},
		{"true", func(string, geodata.Country, time.Time) bool { return true }},
		{"false", func(string, geodata.Country, time.Time) bool { return false }},
		{"hashed", hashedGeoMapping},
	}
	rng := rand.New(rand.NewSource(1))
	seed := int64(0)
	for _, policy := range policies {
		for _, spill := range []float64{0, 0.08} {
			for _, gm := range geoMappings {
				// Three random zones on one server; a fourth with the
				// first one's windows over other addresses and countries,
				// so zones share compiled edges and sets; and a fifth with
				// those windows in reverse address order, whose sets have
				// the same sizes but other members.
				zones := [][]ServerIP{randomZone(rng), randomZone(rng), randomZone(rng)}
				twin := slices.Clone(zones[0])
				for i := range twin {
					twin[i].IP += 1 << 20
					twin[i].Country = oracleCountries[rng.Intn(len(oracleCountries))]
				}
				mirror := slices.Clone(twin)
				slices.SortFunc(mirror, func(a, b ServerIP) int { return cmp.Compare(a.IP, b.IP) })
				for i, j := 0, len(mirror)-1; i < j; i, j = i+1, j-1 {
					mirror[i].From, mirror[j].From = mirror[j].From, mirror[i].From
					mirror[i].To, mirror[j].To = mirror[j].To, mirror[i].To
				}
				for i := range mirror {
					mirror[i].IP += 1 << 20
				}
				zones = append(zones, twin, mirror)
				var logged []Resolution
				s := NewServer(func(r Resolution) { logged = append(logged, r) })
				s.Spill, s.GeoMapping = spill, gm.fn
				for z, servers := range zones {
					s.Register(fmt.Sprintf("z%d.example", z), "z", policy, time.Minute, servers)
				}
				for z, servers := range zones {
					fqdn := fmt.Sprintf("z%d.example", z)
					var times []time.Time
					for _, sv := range servers {
						for _, edge := range []time.Time{sv.From, sv.To} {
							times = append(times, edge, edge.Add(-time.Nanosecond), edge.Add(time.Nanosecond))
						}
					}
					for i := 0; i < 8; i++ {
						times = append(times, t0.Add(time.Duration(rng.Int63n(int64(tEnd.Sub(t0))))))
					}
					times = append(times, t0.Add(-time.Hour), tEnd.Add(time.Hour), time.Time{})
					for _, at := range times {
						user := oracleCountries[rng.Intn(len(oracleCountries))]
						seed++
						type answer struct {
							ip   netsim.IP
							err  error
							log  []Resolution
							next int64
						}
						run := func(pick func(*rand.Rand) (netsim.IP, error)) answer {
							r := rand.New(rand.NewSource(seed))
							logged = logged[:0]
							var a answer
							a.ip, a.err = pick(r)
							a.log, a.next = slices.Clone(logged), r.Int63()
							return a
						}
						want := run(func(r *rand.Rand) (netsim.IP, error) { return refResolve(s, r, fqdn, user, at) })
						plan := s.Plan(fqdn, user, at)
						for name, pick := range map[string]func(*rand.Rand) (netsim.IP, error){
							"Resolve": func(r *rand.Rand) (netsim.IP, error) { return s.Resolve(r, fqdn, user, at) },
							"Pick":    plan.Pick,
						} {
							got := run(pick)
							if got.ip != want.ip || got.err != want.err || got.next != want.next || !slices.Equal(got.log, want.log) {
								t.Fatalf("%s spill=%v geo=%s %s (%d bindings), %s at %s: %s = %+v, oracle %+v",
									policy, spill, gm.name, fqdn, len(servers), user, at.Format(time.RFC3339Nano), name, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// crawlQuery is one request of a simulated crawl.
type crawlQuery struct {
	fqdn string
	user geodata.Country
	at   time.Time
}

// crawlZones builds a crawl-shaped zone set shaped like a generated
// world's: ~950 zones under the world's policy mix, one or two
// bindings per datacenter over one to six datacenters (a tenth of the
// zones as large as 24-57 bindings), every window running from the
// study start to past its end, and ~12% of bindings replaced by a
// sibling address mid-study. The server spills and churns its geo
// mappings over 45-day epochs as the world's does. It returns the
// server and 4,096 queries from European-heavy users at times spread
// over the study.
func crawlZones() (*Server, []crawlQuery) {
	rng := rand.New(rand.NewSource(1))
	start, end, ispEnd := t0, tEnd, tEnd.AddDate(0, 6, 0)
	rotation := start.Add(end.Sub(start) / 2)
	sites := []geodata.Country{"US", "US", "DE", "NL", "GB", "IE", "FR", "SE", "PL", "SG", "JP", "BR", "AU", "CA"}
	users := []geodata.Country{"DE", "DE", "GB", "FR", "ES", "IT", "PL", "NL", "GR", "SE", "CY", "CH", "US", "BR"}
	s := NewServer(nil)
	s.Spill = 0.08
	s.GeoMapping = func(fqdn string, user geodata.Country, t time.Time) bool {
		h := uint64(14695981039346656037)
		for _, str := range []string{fqdn, string(user)} {
			for i := 0; i < len(str); i++ {
				h = (h ^ uint64(str[i])) * 1099511628211
			}
		}
		h ^= uint64(t.Sub(start)/(45*24*time.Hour)) * 0x9e3779b97f4a7c15
		h ^= h >> 33
		return h%100 < 70
	}
	var zones []string
	ip := netsim.IP(0x0a000000)
	for z := 0; z < 950; z++ {
		policy := PolicyNearest
		switch x := rng.Float64(); {
		case x < 0.5:
		case x < 0.7:
			policy = PolicyContinent
		case x < 0.9:
			policy = PolicyHQ
		default:
			policy = PolicyRandom
		}
		dcs, perDC := 1+rng.Intn(6), 1+rng.Intn(2)
		if z%10 == 0 {
			dcs, perDC = 3, 8+rng.Intn(12)
		}
		var servers []ServerIP
		for d := 0; d < dcs; d++ {
			c := sites[rng.Intn(len(sites))]
			for j := 0; j < perDC; j++ {
				ip++
				if rng.Float64() < 0.12 {
					servers = append(servers,
						ServerIP{IP: ip, Country: c, From: start, To: rotation},
						ServerIP{IP: ip + 1<<20, Country: c, From: rotation, To: ispEnd})
					continue
				}
				servers = append(servers, ServerIP{IP: ip, Country: c, From: start, To: ispEnd})
			}
		}
		fqdn := fmt.Sprintf("t%d.tracker%d.example", z, z/3)
		s.Register(fqdn, "org", policy, time.Minute, servers)
		zones = append(zones, fqdn)
	}
	s.Freeze()
	queries := make([]crawlQuery, 4096)
	for i := range queries {
		queries[i] = crawlQuery{
			fqdn: zones[rng.Intn(len(zones))],
			user: users[rng.Intn(len(users))],
			at:   start.Add(time.Duration(rng.Int63n(int64(end.Sub(start))))),
		}
	}
	return s, queries
}

// BenchmarkResolve answers one crawl's worth of queries over
// crawlZones: compiled is Resolve over the compiled zones, oracle the
// filter-and-copy resolver they replaced.
func BenchmarkResolve(b *testing.B) {
	s, queries := crawlZones()
	for _, k := range []struct {
		name    string
		resolve func(*rand.Rand, string, geodata.Country, time.Time) (netsim.IP, error)
	}{
		{"compiled", s.Resolve},
		{"oracle", func(rng *rand.Rand, fqdn string, user geodata.Country, t time.Time) (netsim.IP, error) {
			return refResolve(s, rng, fqdn, user, t)
		}},
	} {
		b.Run(k.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := k.resolve(rng, q.fqdn, q.user, q.at); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
