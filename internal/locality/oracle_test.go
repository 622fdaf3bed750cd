package locality

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
	"crossborder/internal/webgraph"
)

// The oracle below is the engine before its place tables: country
// sets as maps, one string-keyed TLD lookup and one fresh cloud-PoP map
// per flow per scenario, and a full-width row scan.
// TestEngineMatchesOracle pins the table-driven Engine to it.

// oracleFlow aggregates identical observations.
type oracleFlow struct {
	src  geodata.Country
	fqdn uint32
	dst  geodata.Country
}

// oracleEngine evaluates what-if scenarios over the observed tracking
// flows of EU28 users (the population of Table 5).
type oracleEngine struct {
	flows map[oracleFlow]int64
	total int64

	fqdns *classify.Interner
	// byFQDN / byTLD: the set of destination countries observed for a
	// hostname / registrable domain across the whole dataset.
	byFQDN map[uint32]map[geodata.Country]struct{}
	byTLD  map[string]map[geodata.Country]struct{}
	// tldOf caches the registrable domain per FQDN id.
	tldOf map[uint32]string

	orgClouds OrgClouds
	// allCloudCountries caches the union of the nine providers' PoPs.
	allCloudCountries map[geodata.Country]struct{}
}

// newOracleEngine builds the engine from the classified dataset: it
// geolocates every tracking flow of every EU28 user with svc and
// indexes the observed alternatives.
func newOracleEngine(ds *classify.Dataset, svc geo.Service, orgClouds OrgClouds) *oracleEngine {
	e := &oracleEngine{
		flows:             make(map[oracleFlow]int64),
		fqdns:             ds.FQDNs,
		byFQDN:            make(map[uint32]map[geodata.Country]struct{}),
		byTLD:             make(map[string]map[geodata.Country]struct{}),
		tldOf:             make(map[uint32]string),
		orgClouds:         orgClouds,
		allCloudCountries: make(map[geodata.Country]struct{}),
	}
	for _, p := range geodata.AllCloudProviders() {
		for _, c := range geodata.CloudPoPCountries(p) {
			e.allCloudCountries[c] = struct{}{}
		}
	}
	ds.EachRow(func(_ int, r classify.Row) {
		if !r.Class.IsTracking() {
			return
		}
		src := ds.Countries[r.Country]
		if !geodata.IsEU28(src) {
			return
		}
		loc, ok := svc.Locate(r.IP)
		if !ok {
			return
		}
		e.add(src, r.FQDN, loc.Country)
	})
	return e
}

// add records one observed flow and indexes the destination as an
// available alternative for its FQDN and TLD.
func (e *oracleEngine) add(src geodata.Country, fqdnID uint32, dst geodata.Country) {
	e.flows[oracleFlow{src, fqdnID, dst}]++
	e.total++

	set := e.byFQDN[fqdnID]
	if set == nil {
		set = make(map[geodata.Country]struct{})
		e.byFQDN[fqdnID] = set
	}
	set[dst] = struct{}{}

	tld, ok := e.tldOf[fqdnID]
	if !ok {
		tld = webgraph.ETLDPlusOne(e.fqdns.Str(fqdnID))
		e.tldOf[fqdnID] = tld
	}
	tset := e.byTLD[tld]
	if tset == nil {
		tset = make(map[geodata.Country]struct{})
		e.byTLD[tld] = tset
	}
	tset[dst] = struct{}{}
}

// Evaluate computes confinement under a scenario. A flow counts as
// in-country when some allowed destination is the user's country, and as
// in-Europe when some allowed destination is in EU28 or Rest of Europe
// (preferring country over continent, as a GDPR-friendly operator would).
func (e *oracleEngine) Evaluate(s Scenario) Result {
	var inCountry, inEurope int64
	for k, n := range e.flows {
		country, europe := e.outcome(s, k)
		if country {
			inCountry += n
		}
		if europe {
			inEurope += n
		}
	}
	r := Result{Scenario: s}
	if e.total > 0 {
		r.InCountry = 100 * float64(inCountry) / float64(e.total)
		r.InEurope = 100 * float64(inEurope) / float64(e.total)
	}
	return r
}

func oracleIsEurope(c geodata.Country) bool {
	cc := geodata.ContinentOf(c)
	return cc == geodata.EU28 || cc == geodata.RestOfEurope
}

// outcome decides whether flow k can terminate in the user's country and
// whether it can terminate in Europe under scenario s.
func (e *oracleEngine) outcome(s Scenario, k oracleFlow) (inCountry, inEurope bool) {
	// The observed destination always remains available.
	if k.dst == k.src {
		inCountry = true
	}
	if oracleIsEurope(k.dst) {
		inEurope = true
	}
	check := func(set map[geodata.Country]struct{}) {
		if _, ok := set[k.src]; ok {
			inCountry = true
			inEurope = true
			return
		}
		if !inEurope {
			for c := range set {
				if oracleIsEurope(c) {
					inEurope = true
					break
				}
			}
		}
	}
	switch s {
	case Default:
		// nothing more
	case RedirectFQDN:
		check(e.byFQDN[k.fqdn])
	case RedirectTLD:
		check(e.byTLD[e.tldOf[k.fqdn]])
	case PoPMirror:
		check(e.cloudSet(k.fqdn))
	case RedirectTLDPlusPoP:
		check(e.byTLD[e.tldOf[k.fqdn]])
		if !inCountry {
			check(e.cloudSet(k.fqdn))
		}
	case CloudMigration:
		check(e.allCloudCountries)
	}
	return inCountry, inEurope
}

// cloudSet returns the PoP countries available to the org owning fqdn via
// the clouds it already uses.
func (e *oracleEngine) cloudSet(fqdnID uint32) map[geodata.Country]struct{} {
	if e.orgClouds == nil {
		return nil
	}
	providers := e.orgClouds(e.fqdns.Str(fqdnID))
	if len(providers) == 0 {
		return nil
	}
	set := make(map[geodata.Country]struct{})
	for _, p := range providers {
		for _, c := range geodata.CloudPoPCountries(p) {
			set[c] = struct{}{}
		}
	}
	return set
}

// Table5 evaluates the five scenarios of Table 5 in the paper's order.
func (e *oracleEngine) Table5() []Result {
	return []Result{
		e.Evaluate(Default),
		e.Evaluate(RedirectFQDN),
		e.Evaluate(RedirectTLD),
		e.Evaluate(PoPMirror),
		e.Evaluate(RedirectTLDPlusPoP),
	}
}

// Table6 computes per-country improvements for the given origin countries
// (the paper lists UK, Spain, Greece, Italy, Romania, Cyprus, Denmark).
func (e *oracleEngine) Table6(countries []geodata.Country) []CountryImprovement {
	want := make(map[geodata.Country]bool, len(countries))
	for _, c := range countries {
		want[c] = true
	}
	type acc struct {
		total, tld, tldPoP, migr int64
	}
	accs := make(map[geodata.Country]*acc)
	for k, n := range e.flows {
		if !want[k.src] {
			continue
		}
		x := accs[k.src]
		if x == nil {
			x = &acc{}
			accs[k.src] = x
		}
		x.total += n
		if c, _ := e.outcome(RedirectTLD, k); c {
			x.tld += n
		}
		if c, _ := e.outcome(RedirectTLDPlusPoP, k); c {
			x.tldPoP += n
		}
		// Migration is evaluated on top of TLD redirection: either the
		// TLD alternatives or any cloud PoP in the country will do.
		cm, _ := e.outcome(CloudMigration, k)
		ct, _ := e.outcome(RedirectTLD, k)
		if cm || ct {
			x.migr += n
		}
	}
	out := make([]CountryImprovement, 0, len(accs))
	for c, x := range accs {
		if x.total == 0 {
			continue
		}
		pct := func(v int64) float64 { return 100 * float64(v) / float64(x.total) }
		out = append(out, CountryImprovement{
			Country:          c,
			Requests:         x.total,
			PoPOverTLD:       pct(x.tldPoP) - pct(x.tld),
			MigrationOverTLD: pct(x.migr) - pct(x.tld),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PoPOverTLD != out[j].PoPOverTLD {
			return out[i].PoPOverTLD > out[j].PoPOverTLD
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// TestEngineMatchesOracle is the place-table property: over random
// datasets the Engine equals the map-based oracle on every scenario,
// on Table 5 and on Table 6, on wide and compressed stores. The
// datasets mix EU28, rest-of-Europe, other and unknown countries on
// both ends, unlocatable IPs, hostnames sharing registrable domains,
// and random organization clouds.
func TestEngineMatchesOracle(t *testing.T) {
	srcs := []geodata.Country{"DE", "ES", "GR", "CY", "GB", "IT", "CH", "US", "ZZ"}
	dsts := []geodata.Country{"DE", "ES", "GR", "CY", "GB", "IE", "FR", "CH", "NO", "US", "BR", "CN", "SG", "ZZ"}
	clouds := geodata.AllCloudProviders()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := &classify.Dataset{FQDNs: classify.NewInterner(), Countries: srcs}
		orgs := make(map[string][]geodata.CloudProvider)
		for i := 1; i < 120; i++ {
			host := fmt.Sprintf("h%d.t%d.example", i, i%17)
			ds.FQDNs.ID(host)
			for k := rng.Intn(3); k > 0; k-- {
				orgs[host] = append(orgs[host], clouds[rng.Intn(len(clouds))])
			}
		}
		locs := make(map[netsim.IP]geo.Location)
		for ip := netsim.IP(1); ip < 200; ip++ {
			if rng.Intn(10) != 0 {
				locs[ip] = geo.Location{Country: dsts[rng.Intn(len(dsts))]}
			}
		}
		svc := geo.Static{ServiceName: "rand", Locations: locs}
		orgClouds := func(host string) []geodata.CloudProvider { return orgs[host] }
		var rows []classify.Row
		for len(rows) < 3000 {
			country := uint8(rng.Intn(len(srcs)))
			for k := 1 + rng.Intn(200); k > 0; k-- {
				rows = append(rows, classify.Row{
					FQDN: uint32(1 + rng.Intn(119)), IP: netsim.IP(rng.Intn(210)),
					Country: country, Class: classify.Class(rng.Intn(4)),
				})
			}
		}
		for name, st := range map[string]*classify.MemStore{
			"wide":       classify.NewMemStoreChunked(256),
			"compressed": classify.NewMemStoreCompressed(256),
		} {
			for _, r := range rows {
				st.Append(r)
			}
			d := *ds
			d.Store = st
			e, o := NewEngine(&d, svc, orgClouds), newOracleEngine(&d, svc, orgClouds)
			if e.TotalFlows() != o.total {
				t.Fatalf("seed %d %s: %d flows, oracle %d", seed, name, e.TotalFlows(), o.total)
			}
			for _, s := range []Scenario{Default, RedirectFQDN, RedirectTLD, PoPMirror, RedirectTLDPlusPoP, CloudMigration} {
				if got, want := e.Evaluate(s), o.Evaluate(s); got != want {
					t.Errorf("seed %d %s %s: %+v, oracle %+v", seed, name, s, got, want)
				}
			}
			if got, want := e.Table6(srcs), o.Table6(srcs); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s Table6:\n got %+v\nwant %+v", seed, name, got, want)
			}
		}
	}
}
