// Package locality implements the paper's §5 what-if analyses: how much
// more local could tracking flows be if tracking domains used (i) DNS
// redirection to alternative servers already observed for the same FQDN,
// (ii) DNS redirection pooled across the whole registrable domain (TLD
// level), (iii) PoP mirroring across the datacenters of the public clouds
// the tracker already uses, or (iv) migration to any PoP of the nine major
// clouds. The outputs are the confinement percentages of Tables 5 and 6.
package locality

import (
	"sort"

	"crossborder/internal/classify"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
	"crossborder/internal/webgraph"
)

// Scenario selects a what-if policy.
type Scenario uint8

const (
	// Default is the observed assignment: no redirection.
	Default Scenario = iota
	// RedirectFQDN allows redirecting each request to any alternative
	// server observed for the same FQDN.
	RedirectFQDN
	// RedirectTLD allows redirecting to any server observed for any FQDN
	// under the same registrable domain.
	RedirectTLD
	// PoPMirror allows serving from any datacenter country of the cloud
	// providers the owning organization already leases from.
	PoPMirror
	// RedirectTLDPlusPoP combines RedirectTLD and PoPMirror.
	RedirectTLDPlusPoP
	// CloudMigration allows serving from any PoP country of any of the
	// nine major cloud providers (the §5.2 extreme scenario).
	CloudMigration
)

func (s Scenario) String() string {
	switch s {
	case Default:
		return "Default"
	case RedirectFQDN:
		return "Redirections (FQDN)"
	case RedirectTLD:
		return "Redirections (TLD)"
	case PoPMirror:
		return "POP Mirroring (Cloud)"
	case RedirectTLDPlusPoP:
		return "Redirection (TLD) + POP Mirroring (Cloud)"
	case CloudMigration:
		return "Migration to Cloud"
	default:
		return "Scenario(?)"
	}
}

// OrgClouds reports which cloud providers host (part of) the organization
// that owns an FQDN. The scenario package wires this to the synthetic
// world; tests can stub it.
type OrgClouds func(fqdn string) []geodata.CloudProvider

// place is a country as the what-ifs see it: its slot among the EU28
// member states (0–27), restOfEurope, or elsewhere. Every source is an
// EU28 slot, and outcome only ever asks whether a destination is the
// source country or somewhere in Europe.
type place uint8

const (
	restOfEurope place = 28 + iota
	elsewhere
)

// eu28 lists the member states in slot order; eu28Slot inverts it.
var (
	eu28     []geodata.Country
	eu28Slot = make(map[geodata.Country]place)
)

func init() {
	for i, c := range geodata.EU28Countries() {
		eu28 = append(eu28, c.Code)
		eu28Slot[c.Code] = place(i)
	}
	if len(eu28) != int(restOfEurope) {
		panic("locality: EU28 has a member count the place slots do not fit")
	}
}

func placeOf(c geodata.Country) place {
	switch geodata.ContinentOf(c) {
	case geodata.EU28:
		return eu28Slot[c]
	case geodata.RestOfEurope:
		return restOfEurope
	}
	return elsewhere
}

// reach is a set of destination countries reduced to what outcome
// reads: which EU28 members it holds, and whether it holds any country
// in Europe.
type reach struct {
	eu     uint32
	europe bool
}

func (r *reach) add(p place) {
	if p < restOfEurope {
		r.eu |= 1 << p
	}
	r.europe = r.europe || p <= restOfEurope
}

func (r *reach) union(o reach) {
	r.eu |= o.eu
	r.europe = r.europe || o.europe
}

func (r reach) has(p place) bool { return p < restOfEurope && r.eu&(1<<p) != 0 }

// reachOf returns the reach of a country list.
func reachOf(cs []geodata.Country) reach {
	var r reach
	for _, c := range cs {
		r.add(placeOf(c))
	}
	return r
}

// flow aggregates identical observations: n tracking requests from an
// EU28 user in src to hostname fqdn (an interner id) served from dst.
type flow struct {
	src, dst place
	fqdn     uint32
	n        int64
}

// Engine evaluates what-if scenarios over the observed tracking flows of
// EU28 users (the population of Table 5). It is immutable once
// NewEngine returns, so concurrent Evaluate/Table5/Table6 calls are
// safe.
type Engine struct {
	flows []flow
	total int64
	// byFQDN, byTLD and cloud are indexed by FQDN interner id: the
	// destinations observed for the hostname, for its registrable
	// domain, and the PoPs of the clouds its organization leases from.
	byFQDN, byTLD, cloud []reach
	// allClouds is the union of the nine providers' PoPs.
	allClouds reach
}

// NewEngine builds the engine from the classified dataset: it geolocates
// every tracking flow of every EU28 user with svc (the paper uses RIPE
// IPmap here) and indexes the observed alternatives. Each distinct IP
// is located once, and each distinct tracked FQDN resolves its eTLD+1
// and organization clouds once.
func NewEngine(ds *classify.Dataset, svc geo.Service, orgClouds OrgClouds) *Engine {
	e := &Engine{}
	clouds := make(map[geodata.CloudProvider]reach)
	for _, p := range geodata.AllCloudProviders() {
		clouds[p] = reachOf(geodata.CloudPoPCountries(p))
		e.allClouds.union(clouds[p])
	}
	srcOf := make([]place, len(ds.Countries))
	for i, c := range ds.Countries {
		srcOf[i] = placeOf(c)
	}
	// unlocated marks an IP svc has no answer for.
	const unlocated = place(255)
	dstOf := make(map[uint64]place)
	counts := make(map[uint64]int64) // src<<40 | dst<<32 | fqdn
	ds.ScanCols(func(_ int, pc *classify.ProjChunk) {
		cls := pc.Class
		if !classify.AnyTracking(cls) {
			return
		}
		var ips, fqdns []uint64
		row := 0
		for _, r := range pc.Runs(classify.ColCountry) {
			lo := row
			row += r.Len
			src := srcOf[r.Value]
			if src >= restOfEurope {
				continue
			}
			if ips == nil {
				ips, fqdns = pc.Wide(classify.ColIP), pc.Wide(classify.ColFQDN)
			}
			for i := lo; i < row; i++ {
				if !cls[i].IsTracking() {
					continue
				}
				dst, ok := dstOf[ips[i]]
				if !ok {
					dst = unlocated
					if loc, ok := svc.Locate(netsim.IP(ips[i])); ok {
						dst = placeOf(loc.Country)
					}
					dstOf[ips[i]] = dst
				}
				if dst != unlocated {
					counts[uint64(src)<<40|uint64(dst)<<32|fqdns[i]]++
				}
			}
		}
	})

	n := ds.FQDNs.Len()
	e.flows = make([]flow, 0, len(counts))
	for k, c := range counts {
		f := flow{src: place(k >> 40), dst: place(k >> 32), fqdn: uint32(k), n: c}
		e.flows = append(e.flows, f)
		e.total += c
		n = max(n, int(f.fqdn)+1)
	}
	e.byFQDN = make([]reach, n)
	for _, f := range e.flows {
		e.byFQDN[f.fqdn].add(f.dst)
	}
	// Per distinct tracked FQDN: its registrable domain's reach (the
	// union over the domain's hostnames) and its organization's clouds.
	e.byTLD = make([]reach, n)
	e.cloud = make([]reach, n)
	tldOf := make(map[uint32]string)
	byTLD := make(map[string]reach)
	for _, f := range e.flows {
		if _, done := tldOf[f.fqdn]; done {
			continue
		}
		host := ds.FQDNs.Str(f.fqdn)
		tld := webgraph.ETLDPlusOne(host)
		tldOf[f.fqdn] = tld
		r := byTLD[tld]
		r.union(e.byFQDN[f.fqdn])
		byTLD[tld] = r
		if orgClouds != nil {
			for _, p := range orgClouds(host) {
				e.cloud[f.fqdn].union(clouds[p])
			}
		}
	}
	for f, tld := range tldOf {
		e.byTLD[f] = byTLD[tld]
	}
	return e
}

// TotalFlows returns the number of EU28 tracking flows under analysis
// (the paper's 1,824,873 in Table 5).
func (e *Engine) TotalFlows() int64 { return e.total }

// Result is one scenario's confinement outcome.
type Result struct {
	Scenario  Scenario
	InCountry float64 // % of flows confinable to the user's country
	InEurope  float64 // % confinable to Europe (the paper's "Cont.")
}

// Evaluate computes confinement under a scenario. A flow counts as
// in-country when some allowed destination is the user's country, and as
// in-Europe when some allowed destination is in EU28 or Rest of Europe
// (preferring country over continent, as a GDPR-friendly operator would).
func (e *Engine) Evaluate(s Scenario) Result {
	var inCountry, inEurope int64
	for _, f := range e.flows {
		country, europe := e.outcome(s, f)
		if country {
			inCountry += f.n
		}
		if europe {
			inEurope += f.n
		}
	}
	r := Result{Scenario: s}
	if e.total > 0 {
		r.InCountry = 100 * float64(inCountry) / float64(e.total)
		r.InEurope = 100 * float64(inEurope) / float64(e.total)
	}
	return r
}

// outcome decides whether flow f can terminate in the user's country and
// whether it can terminate in Europe under scenario s.
func (e *Engine) outcome(s Scenario, f flow) (inCountry, inEurope bool) {
	// The observed destination always remains available.
	inCountry = f.dst == f.src
	inEurope = f.dst <= restOfEurope
	check := func(r reach) {
		if r.has(f.src) {
			inCountry, inEurope = true, true
		}
		inEurope = inEurope || r.europe
	}
	switch s {
	case Default:
		// nothing more
	case RedirectFQDN:
		check(e.byFQDN[f.fqdn])
	case RedirectTLD:
		check(e.byTLD[f.fqdn])
	case PoPMirror:
		check(e.cloud[f.fqdn])
	case RedirectTLDPlusPoP:
		check(e.byTLD[f.fqdn])
		if !inCountry {
			check(e.cloud[f.fqdn])
		}
	case CloudMigration:
		check(e.allClouds)
	}
	return inCountry, inEurope
}

// Table5 evaluates the five scenarios of Table 5 in the paper's order.
func (e *Engine) Table5() []Result {
	return []Result{
		e.Evaluate(Default),
		e.Evaluate(RedirectFQDN),
		e.Evaluate(RedirectTLD),
		e.Evaluate(PoPMirror),
		e.Evaluate(RedirectTLDPlusPoP),
	}
}

// CountryImprovement is one row of Table 6: how much a scenario improves
// one country's confinement over the TLD-redirection baseline.
type CountryImprovement struct {
	Country  geodata.Country
	Requests int64
	// PoPOverTLD is the extra in-country percentage points PoP mirroring
	// adds on top of TLD redirection.
	PoPOverTLD float64
	// MigrationOverTLD is the extra in-country points full cloud
	// migration adds on top of TLD redirection.
	MigrationOverTLD float64
}

// Table6 computes per-country improvements for the given origin countries
// (the paper lists UK, Spain, Greece, Italy, Romania, Cyprus, Denmark).
func (e *Engine) Table6(countries []geodata.Country) []CountryImprovement {
	var want [restOfEurope]bool
	for _, c := range countries {
		if p := placeOf(c); p < restOfEurope {
			want[p] = true
		}
	}
	type acc struct {
		total, tld, tldPoP, migr int64
	}
	var accs [restOfEurope]acc
	for _, f := range e.flows {
		if !want[f.src] {
			continue
		}
		x := &accs[f.src]
		x.total += f.n
		if c, _ := e.outcome(RedirectTLD, f); c {
			x.tld += f.n
		}
		if c, _ := e.outcome(RedirectTLDPlusPoP, f); c {
			x.tldPoP += f.n
		}
		// Migration is evaluated on top of TLD redirection: either the
		// TLD alternatives or any cloud PoP in the country will do.
		cm, _ := e.outcome(CloudMigration, f)
		ct, _ := e.outcome(RedirectTLD, f)
		if cm || ct {
			x.migr += f.n
		}
	}
	out := make([]CountryImprovement, 0, len(countries))
	for p, x := range accs {
		if x.total == 0 {
			continue
		}
		pct := func(v int64) float64 { return 100 * float64(v) / float64(x.total) }
		out = append(out, CountryImprovement{
			Country:          eu28[p],
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
