package netflow

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"crossborder/internal/dns"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// resolveSynthesize is Synthesize's oracle: the same day built with one
// dns.Server.Resolve per sample, before plans were memoized.
func resolveSynthesize(s *Synthesizer, rng *rand.Rand, isp ISPProfile, date time.Time, fqdns []FQDNWeight) DaySynthesis {
	out := DaySynthesis{ISP: isp, Date: date, PerIP: make(map[netsim.IP]int64)}
	total := int64(isp.DailySampledFlowsM * 1e6)
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
	var assigned int64
	for _, f := range fqdns {
		budget := int64(float64(total) * f.Weight / weightSum)
		if budget == 0 {
			continue
		}
		nThird := int(float64(samples) * isp.ThirdPartyDNSShare)
		nLocal := samples - nThird
		dests := make([]netsim.IP, 0, samples)
		for i := 0; i < nLocal; i++ {
			if ip, err := s.Resolver.Resolve(rng, f.FQDN, isp.Country, date); err == nil {
				dests = append(dests, ip)
			}
		}
		for i := 0; i < nThird; i++ {
			vantage := thirdPartyVantages[rng.Intn(len(thirdPartyVantages))]
			if ip, err := s.Resolver.Resolve(rng, f.FQDN, vantage, date); err == nil {
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

// synthWorld is a random DNS world shaped like the scenario's: every
// policy, multi-country footprints with rotating bindings, 8% spill
// and an epoch-hashed geo mapping. The weights name some FQDNs no
// zone serves (NXDOMAIN) and some whose bindings all end before the
// later dates (no active server).
func synthWorld(seed int64, n int) (*dns.Server, []FQDNWeight, []time.Time) {
	rng := rand.New(rand.NewSource(seed))
	start := time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)
	dates := []time.Time{
		time.Date(2017, 11, 8, 12, 0, 0, 0, time.UTC),
		time.Date(2018, 4, 4, 12, 0, 0, 0, time.UTC),
		time.Date(2018, 5, 16, 12, 0, 0, 0, time.UTC),
		time.Date(2018, 6, 20, 12, 0, 0, 0, time.UTC),
	}
	countries := []geodata.Country{"DE", "PL", "HU", "NL", "IE", "GB", "FR", "US", "BR", "JP", "SG"}
	srv := dns.NewServer(nil)
	srv.Spill = 0.08
	srv.GeoMapping = func(fqdn string, user geodata.Country, t time.Time) bool {
		h := fnv.New32a()
		fmt.Fprintf(h, "%s|%s|%d", fqdn, user, t.Sub(start)/(45*24*time.Hour))
		return h.Sum32()%10 < 6
	}
	var weights []FQDNWeight
	for i := 0; i < n; i++ {
		fqdn := fmt.Sprintf("t%d.tracker%d.example", i, i%37)
		weights = append(weights, FQDNWeight{FQDN: fqdn, Weight: float64(1 + rng.Intn(1000))})
		if i%50 == 7 {
			continue // NXDOMAIN
		}
		var servers []dns.ServerIP
		for k := 1 + rng.Intn(8); k > 0; k-- {
			from := start.Add(time.Duration(rng.Intn(200)) * 24 * time.Hour)
			to := from.Add(time.Duration(60+rng.Intn(400)) * 24 * time.Hour)
			if i%50 == 11 {
				from, to = start, dates[0]
			}
			servers = append(servers, dns.ServerIP{
				IP:      netsim.IP(0x0a000000 + uint32(i)<<4 + uint32(k)),
				Country: countries[rng.Intn(len(countries))],
				Weight:  rng.Intn(4), From: from, To: to,
			})
		}
		srv.Register(fqdn, fmt.Sprintf("org%d", i%37), dns.Policy(rng.Intn(7)), time.Minute, servers)
	}
	srv.Freeze()
	return srv, weights, dates
}

// TestSynthesizeMatchesResolveOracle: one planned Synthesizer, reused
// across all four ISPs and four dates as Table 8 uses it, produces
// every day equal to the resolve-per-sample oracle and leaves the rng
// where the oracle leaves it.
func TestSynthesizeMatchesResolveOracle(t *testing.T) {
	srv, fqdns, dates := synthWorld(1, 400)
	planned := &Synthesizer{Resolver: srv}
	oracle := &Synthesizer{Resolver: srv}
	for _, isp := range DefaultISPs() {
		isp.DailySampledFlowsM /= 100
		for di, date := range dates {
			seed := int64(100*di) + int64(len(isp.Name))
			ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got := planned.Synthesize(ra, isp, date, fqdns)
			want := resolveSynthesize(oracle, rb, isp, date, fqdns)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: planned day differs from the resolve oracle (%d vs %d flows over %d vs %d IPs)",
					isp.Name, date.Format("2006-01-02"), got.SampledFlows, want.SampledFlows, len(got.PerIP), len(want.PerIP))
			}
			if ra.Int63() != rb.Int63() {
				t.Fatalf("%s %s: planned and oracle days consumed different draws", isp.Name, date.Format("2006-01-02"))
			}
		}
	}
}

// synthSink keeps the benchmarked days alive.
var synthSink DaySynthesis

// BenchmarkSynthesize times one Table 8 run — four ISPs by four dates
// through one fresh Synthesizer — with memoized plans against the
// resolve-per-sample oracle, so CI can gate the plans as a same-run
// ratio.
func BenchmarkSynthesize(b *testing.B) {
	srv, fqdns, dates := synthWorld(1, 2000)
	for _, k := range []struct {
		name string
		day  func(*Synthesizer, *rand.Rand, ISPProfile, time.Time, []FQDNWeight) DaySynthesis
	}{{"plan", (*Synthesizer).Synthesize}, {"resolve", resolveSynthesize}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := &Synthesizer{Resolver: srv}
				for _, isp := range DefaultISPs() {
					for di, date := range dates {
						synthSink = k.day(s, rand.New(rand.NewSource(int64(di))), isp, date, fqdns)
					}
				}
			}
		})
	}
}
