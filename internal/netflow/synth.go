package netflow

import (
	"math/rand"
	"sort"
	"time"

	"crossborder/internal/dns"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// ISPProfile describes one of the four European ISPs of Table 7.
type ISPProfile struct {
	Name    string
	Country geodata.Country
	// Subscribers in millions (households for broadband).
	SubscribersM float64
	// Mobile marks primarily-mobile operators. Mobile users rely on the
	// carrier's resolver and get mapped to nearby tracking servers;
	// broadband users increasingly use third-party DNS (§7.3).
	Mobile bool
	// ThirdPartyDNSShare is the fraction of subscribers using Google
	// DNS/Quad9/etc., which defeats geo-aware server selection.
	ThirdPartyDNSShare float64
	// DailySampledFlowsM is the rough number of sampled tracking flows
	// per day in millions (Table 8's magnitude).
	DailySampledFlowsM float64
}

// DefaultISPs reproduces Table 7's four networks.
func DefaultISPs() []ISPProfile {
	return []ISPProfile{
		{Name: "DE-Broadband", Country: "DE", SubscribersM: 15, Mobile: false, ThirdPartyDNSShare: 0.22, DailySampledFlowsM: 1057},
		{Name: "DE-Mobile", Country: "DE", SubscribersM: 40, Mobile: true, ThirdPartyDNSShare: 0.05, DailySampledFlowsM: 70},
		{Name: "PL", Country: "PL", SubscribersM: 11, Mobile: false, ThirdPartyDNSShare: 0.20, DailySampledFlowsM: 13.8},
		{Name: "HU", Country: "HU", SubscribersM: 6, Mobile: true, ThirdPartyDNSShare: 0.08, DailySampledFlowsM: 43},
	}
}

// FQDNWeight is the popularity of one tracking FQDN, taken from the
// extension dataset's request counts: the ISP's subscribers hit the same
// services in roughly the same proportions.
type FQDNWeight struct {
	FQDN   string
	Weight float64
}

// DaySynthesis is the aggregate outcome of one ISP-day: sampled tracking
// flow counts per destination tracker IP. At Table 8 scale (10⁹ sampled
// flows) synthesizing aggregates is the only tractable representation;
// the per-record codec above is exercised at small scale by the scanner
// and the examples.
type DaySynthesis struct {
	ISP          ISPProfile
	Date         time.Time
	SampledFlows int64
	// PerIP maps each tracker IP to its sampled flow count.
	PerIP map[netsim.IP]int64
}

// Synthesizer produces ISP-day aggregates by replaying the DNS behaviour
// of the ISP's subscriber base over the tracking FQDN popularity profile.
// It memoizes one compiled DNS query (dns.Plan) per FQDN, vantage
// country and date for its own lifetime, so a Synthesizer must not be
// shared between goroutines, and should not outlive a change to its
// Resolver's Spill or GeoMapping. The Resolver's zones are compiled
// already, so neither a Plan nor a Resolve copies bindings; what the
// memo saves per sample is the zone and region lookups, the GeoMapping
// call and the policy's pass over the active set: a Table 8 run takes
// about 0.7 of its resolve-per-sample time. The memo is never trimmed
// and grows with the number of distinct dates synthesized; a
// Synthesizer is meant for a small fixed set of dates, such as Table
// 8's four.
type Synthesizer struct {
	Resolver *dns.Server
	// ResolutionSamples is how many resolutions approximate one FQDN's
	// destination distribution (default 24).
	ResolutionSamples int

	// plans holds each FQDN's compiled queries, keyed by name so the
	// memo is independent of the weight slice's order.
	plans map[string]*fqdnPlans
}

// fqdnPlans holds one FQDN's compiled queries, one per (vantage
// country, date).
type fqdnPlans struct {
	fqdn    string
	queries []plannedQuery
}

type plannedQuery struct {
	country geodata.Country
	date    time.Time
	plan    *dns.Plan
}

// plan returns the FQDN's plan for a vantage, compiling it on first use.
func (fp *fqdnPlans) plan(r *dns.Server, country geodata.Country, date time.Time) *dns.Plan {
	for _, q := range fp.queries {
		if q.country == country && q.date.Equal(date) {
			return q.plan
		}
	}
	p := r.Plan(fp.fqdn, country, date)
	fp.queries = append(fp.queries, plannedQuery{country, date, p})
	return p
}

// Synthesize generates one ISP-day. The per-FQDN flow budget is
// distributed over the destination IPs the ISP's users would actually be
// handed: mostly geo-aware answers for the ISP's country, mixed with
// location-blind answers for the third-party-DNS share of subscribers.
// Answers come from memoized dns.Plans, whose Picks equal Resolve's
// answers draw for draw.
func (s *Synthesizer) Synthesize(rng *rand.Rand, isp ISPProfile, date time.Time, fqdns []FQDNWeight) DaySynthesis {
	out := DaySynthesis{ISP: isp, Date: date, PerIP: make(map[netsim.IP]int64)}
	total := int64(isp.DailySampledFlowsM * 1e6)
	// Mild day-to-day variation (Table 8 varies ~±10% across dates).
	total = int64(float64(total) * (0.92 + 0.16*rng.Float64()))

	var weightSum float64
	for _, f := range fqdns {
		weightSum += f.Weight
	}
	if weightSum == 0 || total <= 0 {
		return out
	}
	samples := s.ResolutionSamples
	if samples <= 0 {
		samples = 24
	}
	if s.plans == nil {
		s.plans = make(map[string]*fqdnPlans)
	}

	var assigned int64
	for _, f := range fqdns {
		budget := int64(float64(total) * f.Weight / weightSum)
		if budget == 0 {
			continue
		}
		fp := s.plans[f.FQDN]
		if fp == nil {
			fp = &fqdnPlans{fqdn: f.FQDN}
			s.plans[f.FQDN] = fp
		}
		// Approximate the destination distribution with repeated
		// resolutions: carrier-resolver users (geo-aware) and
		// third-party-DNS users (location-blind).
		nThird := int(float64(samples) * isp.ThirdPartyDNSShare)
		nLocal := samples - nThird
		dests := make([]netsim.IP, 0, samples)
		local := fp.plan(s.Resolver, isp.Country, date)
		for i := 0; i < nLocal; i++ {
			if ip, err := local.Pick(rng); err == nil {
				dests = append(dests, ip)
			}
		}
		var vantage [len(thirdPartyVantages)]*dns.Plan
		for i := 0; i < nThird; i++ {
			// A third-party resolver's vantage hides the user: model as
			// resolution from a random large market.
			v := rng.Intn(len(thirdPartyVantages))
			if vantage[v] == nil {
				vantage[v] = fp.plan(s.Resolver, thirdPartyVantages[v], date)
			}
			if ip, err := vantage[v].Pick(rng); err == nil {
				dests = append(dests, ip)
			}
		}
		if len(dests) == 0 {
			continue
		}
		per := budget / int64(len(dests))
		rem := budget - per*int64(len(dests))
		for i, ip := range dests {
			n := per
			if int64(i) < rem {
				n++
			}
			if n > 0 {
				out.PerIP[ip] += n
				assigned += n
			}
		}
	}
	out.SampledFlows = assigned
	return out
}

// thirdPartyVantages approximates where public resolvers' queries appear
// to originate from (EDNS client subnet is rarely passed through).
var thirdPartyVantages = [...]geodata.Country{"US", "US", "IE", "NL", "DE", "GB", "FR"}

// TopIPs returns the n busiest destination IPs of the day.
func (d DaySynthesis) TopIPs(n int) []netsim.IP {
	type kv struct {
		ip netsim.IP
		n  int64
	}
	all := make([]kv, 0, len(d.PerIP))
	for ip, c := range d.PerIP {
		all = append(all, kv{ip, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].ip < all[j].ip
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]netsim.IP, 0, n)
	for _, kv := range all[:n] {
		out = append(out, kv.ip)
	}
	return out
}

// TrackerMatcher is the predicate the scanner uses: does this IP belong
// to the tracker inventory at time t? (trackerdb.Inventory.IsTrackingIP
// satisfies it.)
type TrackerMatcher func(ip netsim.IP, t time.Time) bool

// ScanResult summarizes a scan of flow records against the tracker list.
type ScanResult struct {
	Records    int64
	WebRecords int64
	Tracking   int64
	Encrypted  int64 // port-443 share of tracking flows (§7.2: >83%)
	PerIP      map[netsim.IP]int64
	PerInputIf map[uint16]int64
}

// Scan matches records against the tracker inventory the way §7.2
// describes: only user-facing interfaces, web ports, and either flow
// endpoint may be the tracker. Subscriber addresses never leave the
// function — only per-tracker-IP counters, mirroring the paper's
// anonymization (user IPs replaced by the ISP's country).
func Scan(records []Record, userIfaces map[uint16]bool, match TrackerMatcher) ScanResult {
	res := ScanResult{PerIP: make(map[netsim.IP]int64), PerInputIf: make(map[uint16]int64)}
	for _, r := range records {
		if userIfaces != nil && !userIfaces[r.InputIf] && !userIfaces[r.OutputIf] {
			continue
		}
		res.Records++
		if !r.IsWeb() {
			continue
		}
		res.WebRecords++
		var trackerIP netsim.IP
		switch {
		case match(r.DstIP, r.Last):
			trackerIP = r.DstIP
		case match(r.SrcIP, r.Last):
			trackerIP = r.SrcIP
		default:
			continue
		}
		res.Tracking++
		res.PerIP[trackerIP]++
		res.PerInputIf[r.InputIf]++
		if r.DstPort == 443 || r.SrcPort == 443 {
			res.Encrypted++
		}
	}
	return res
}
