// Package dns implements the authoritative DNS substrate for the tracking
// domains of the synthetic world. Every tracking FQDN is backed by a set of
// server IPs drawn from its organization's datacenter deployments, each
// with an activity window (IPs rotate over the measurement period, which is
// what gives passive-DNS records their first/last-seen semantics). A
// per-organization selection policy decides which IP a resolver hands to a
// user in a given country — this policy is exactly the knob the paper's §5
// "what-if DNS redirection" analysis turns.
package dns

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// Policy is an organization's server-selection strategy.
type Policy uint8

const (
	// PolicyNearest prefers a server in the user's country, then the
	// user's continent (closest by great-circle distance), then anywhere.
	// Mobile carriers' resolvers see this behaviour most cleanly (§7.3).
	PolicyNearest Policy = iota
	// PolicyContinent balances across the org's servers within the user's
	// continent without preferring the user's country, falling back to
	// anywhere. This models CDN-style load-balancing that is
	// continent-aware but not country-aware.
	PolicyContinent
	// PolicyHQ always serves from the org's home-country deployment:
	// the behaviour of small trackers with a single serving site.
	PolicyHQ
	// PolicyRandom picks uniformly among all the org's servers; models
	// third-party resolvers defeating geo-DNS (§7.3 broadband effect).
	PolicyRandom
	// PolicyWeighted draws among the active bindings proportionally to
	// ServerIP.Weight (zero counts as 1) — GSLB-style weighted
	// round-robin, the knob scenario packs turn to bias traffic toward
	// chosen regions without touching the deployment footprint.
	PolicyWeighted
	// PolicyLatency serves the binding with the lowest modeled RTT to
	// the user (great-circle distance through geodata.MinRTTms),
	// ignoring country and continent boundaries entirely. Ties resolve
	// to the lowest IP, so the answer is deterministic per (user
	// country, active set).
	PolicyLatency
	// PolicyFailover serves the highest-Weight active binding (ties to
	// the lowest IP): bindings form priority tiers and the answer falls
	// to the next tier only when every higher-priority binding is
	// outside its activity window — DNS-level primary/backup failover.
	PolicyFailover
)

func (p Policy) String() string {
	switch p {
	case PolicyNearest:
		return "nearest"
	case PolicyContinent:
		return "continent"
	case PolicyHQ:
		return "hq"
	case PolicyRandom:
		return "random"
	case PolicyWeighted:
		return "weighted"
	case PolicyLatency:
		return "latency"
	case PolicyFailover:
		return "failover"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ServerIP is one address serving an FQDN, with ground-truth location and
// the window during which the (fqdn, ip) binding is active.
type ServerIP struct {
	IP      netsim.IP
	Country geodata.Country
	// Provider is the cloud hosting the address ("" for own facilities).
	Provider geodata.CloudProvider
	// Weight biases PolicyWeighted draws and orders PolicyFailover
	// priority tiers; zero means 1 under PolicyWeighted and lowest
	// priority under PolicyFailover. Other policies ignore it.
	Weight int
	// Active window of the binding.
	From, To time.Time
}

// ActiveAt reports whether the binding covers time t.
func (s ServerIP) ActiveAt(t time.Time) bool {
	return !t.Before(s.From) && !t.After(s.To)
}

// entry is the zone data for one FQDN.
type entry struct {
	org     string
	policy  Policy
	ttl     time.Duration
	servers []ServerIP
}

// Resolution is one logged DNS answer, consumed by the passive-DNS
// replication store.
type Resolution struct {
	FQDN string
	IP   netsim.IP
	At   time.Time
}

// Server is the authoritative resolver for the synthetic world.
// Register all zones during construction, then call Freeze; Resolve is
// afterwards safe for concurrent use as long as each goroutine passes its
// own *rand.Rand and the resolution log is nil or itself concurrency-safe
// (the parallel simulation pipeline runs with a nil log and feeds passive
// DNS directly from zone construction). Resolve never mutates server
// state, which is what makes the read path race-free; Register after
// Freeze panics so the invariant cannot be broken accidentally.
type Server struct {
	// mu guards zones during construction: the scenario's world build
	// registers planned zones from a worker pool. Distinct FQDNs
	// commute, so the final zone map is independent of registration
	// order. The read path never takes the lock — Freeze publishes the
	// map and Register panics afterwards.
	mu     sync.Mutex
	zones  map[string]*entry
	frozen bool
	// log receives every resolution when non-nil.
	log func(Resolution)
	// Spill is the probability that a PolicyNearest answer falls back to
	// a random same-continent server instead of the geographically
	// nearest one, modelling imperfect geo load balancing. Zero by
	// default. Set before serving queries.
	Spill float64
	// GeoMapping, when non-nil, reports whether the in-country geo-DNS
	// mapping for (fqdn, user country) is active at time t. Real geo-DNS
	// region mappings churn over months with capacity and cost; when the
	// mapping is inactive, a PolicyNearest zone serves the user from the
	// nearest *other* country even if it has local servers. nil means
	// always active.
	GeoMapping func(fqdn string, user geodata.Country, t time.Time) bool
}

// NewServer returns an empty authoritative server. logFn, when non-nil,
// receives every successful resolution (the pDNS feed).
func NewServer(logFn func(Resolution)) *Server {
	return &Server{zones: make(map[string]*entry), log: logFn}
}

// Freeze marks zone construction finished. Resolve is safe for
// concurrent readers afterwards; further Register calls panic. Freeze
// takes the construction lock, so it orders correctly against parallel
// registrations that are still completing.
func (s *Server) Freeze() {
	s.mu.Lock()
	s.frozen = true
	s.mu.Unlock()
}

// Register adds a zone for fqdn. Later registrations for the same FQDN
// replace earlier ones. Register panics after Freeze. Concurrent
// registrations of distinct FQDNs are safe and commute.
func (s *Server) Register(fqdn, org string, policy Policy, ttl time.Duration, servers []ServerIP) {
	if len(servers) == 0 {
		panic("dns: Register with no servers for " + fqdn)
	}
	cp := make([]ServerIP, len(servers))
	copy(cp, servers)
	sort.Slice(cp, func(i, j int) bool { return cp[i].IP < cp[j].IP })
	e := &entry{org: org, policy: policy, ttl: ttl, servers: cp}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		panic("dns: Register after Freeze")
	}
	s.zones[fqdn] = e
}

// Zones returns the registered FQDNs in sorted order.
func (s *Server) Zones() []string {
	out := make([]string, 0, len(s.zones))
	for f := range s.zones {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Servers returns all server bindings for an FQDN (active or not).
func (s *Server) Servers(fqdn string) []ServerIP {
	e, ok := s.zones[fqdn]
	if !ok {
		return nil
	}
	out := make([]ServerIP, len(e.servers))
	copy(out, e.servers)
	return out
}

// TTL returns the zone's record TTL, or zero if unknown.
func (s *Server) TTL(fqdn string) time.Duration {
	if e, ok := s.zones[fqdn]; ok {
		return e.ttl
	}
	return 0
}

// Policy returns the zone's selection policy.
func (s *Server) Policy(fqdn string) (Policy, bool) {
	e, ok := s.zones[fqdn]
	if !ok {
		return 0, false
	}
	return e.policy, true
}

// ErrNXDomain is returned for unregistered names.
var ErrNXDomain = errors.New("dns: NXDOMAIN")

// ErrNoActiveServer is returned when every binding is outside its window.
var ErrNoActiveServer = errors.New("dns: no active server for name")

// Resolve answers a query from a user in the given country at time t.
// It performs no writes to server state and is safe for concurrent use
// after Freeze (each goroutine with its own rng).
func (s *Server) Resolve(rng *rand.Rand, fqdn string, userCountry geodata.Country, t time.Time) (netsim.IP, error) {
	e, ok := s.zones[fqdn]
	if !ok {
		return 0, ErrNXDomain
	}
	// Filter into a stack buffer: the common case (every binding active)
	// must not allocate, since Resolve sits on the per-request hot path.
	var buf [32]ServerIP
	active := appendActive(buf[:0], e.servers, t)
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
	sel := selectFrom(policy, active, userCountry, localOK)
	ip := sel.draw(rng, active)
	if s.log != nil {
		s.log(Resolution{FQDN: fqdn, IP: ip, At: t})
	}
	return ip, nil
}

// spills draws whether a PolicyNearest answer spills to
// PolicyContinent: one Float64, and only when spill is positive.
func spills(rng *rand.Rand, spill float64) bool {
	return spill > 0 && rng.Float64() < spill
}

// Plan is one query — (fqdn, user country, time) — compiled against
// the frozen zones: the zone lookup, the activity-window filter, the
// GeoMapping verdict and each candidate policy's deterministic part
// are done once, leaving only the draws for Pick. A Plan is immutable
// and safe for concurrent Picks (each goroutine with its own rng).
type Plan struct {
	err    error
	active []ServerIP
	// spill is the server's Spill for a PolicyNearest zone, zero
	// otherwise; alt is the PolicyContinent selection a spill serves.
	spill     float64
	main, alt selection
	fqdn      string
	at        time.Time
	log       func(Resolution)
}

// Plan compiles a query. It reads Spill and GeoMapping as they are
// now, so set both before planning.
func (s *Server) Plan(fqdn string, userCountry geodata.Country, t time.Time) *Plan {
	p := &Plan{fqdn: fqdn, at: t, log: s.log}
	e, ok := s.zones[fqdn]
	if !ok {
		p.err = ErrNXDomain
		return p
	}
	p.active = e.servers
	if n := countActive(e.servers, t); n < len(e.servers) {
		// Zones are immutable after Register, so a plan shares the
		// binding list whenever every binding is active.
		p.active = appendActive(make([]ServerIP, 0, n), e.servers, t)
	}
	if len(p.active) == 0 {
		p.err = ErrNoActiveServer
		return p
	}
	localOK := true
	if e.policy == PolicyNearest {
		if s.GeoMapping != nil {
			localOK = s.GeoMapping(fqdn, userCountry, t)
		}
		p.spill = s.Spill
		p.alt = selectFrom(PolicyContinent, p.active, userCountry, localOK)
	}
	p.main = selectFrom(e.policy, p.active, userCountry, localOK)
	return p
}

// Pick answers the planned query. It returns what Resolve would for
// the same query and rng state, and consumes exactly the draws Resolve
// does: a Float64 for the spill when the zone can spill, then the
// selected policy's Intn, if any.
func (p *Plan) Pick(rng *rand.Rand) (netsim.IP, error) {
	if p.err != nil {
		return 0, p.err
	}
	sel := &p.main
	if spills(rng, p.spill) {
		sel = &p.alt
	}
	ip := sel.draw(rng, p.active)
	if p.log != nil {
		p.log(Resolution{FQDN: p.fqdn, IP: ip, At: p.at})
	}
	return ip, nil
}

func countActive(servers []ServerIP, t time.Time) int {
	n := 0
	for i := range servers {
		if servers[i].ActiveAt(t) {
			n++
		}
	}
	return n
}

func appendActive(out, servers []ServerIP, t time.Time) []ServerIP {
	for _, sv := range servers {
		if sv.ActiveAt(t) {
			out = append(out, sv)
		}
	}
	return out
}

// selection is a policy applied to an active set, up to its random
// draw: a fixed answer, Intn(n) over the bindings m accepts, or
// Intn(total weight) over all of them.
type selection struct {
	kind selKind
	ip   netsim.IP // selFixed
	m    matcher   // selUniform
	n    int       // selUniform: bindings m accepts; selWeighted: total weight
}

type selKind uint8

const (
	selFixed selKind = iota
	selUniform
	selWeighted
)

// matcher is the candidate filter of a uniform draw.
type matcher struct {
	by      matchBy
	country geodata.Country   // matchCountry
	cont    geodata.Continent // matchContinent (Europe counts as one)
}

type matchBy uint8

const (
	matchAll matchBy = iota
	matchCountry
	matchContinent
)

func (m matcher) ok(sv *ServerIP) bool {
	switch m.by {
	case matchCountry:
		return sv.Country == m.country
	case matchContinent:
		return sameEurope(geodata.ContinentOf(sv.Country), m.cont)
	}
	return true
}

// count returns how many bindings m accepts.
func (m matcher) count(active []ServerIP) int {
	n := 0
	for i := range active {
		if m.ok(&active[i]) {
			n++
		}
	}
	return n
}

// draw completes the selection over the active set it was made from.
// Count-then-select keeps a uniform draw identical to collecting the
// matches into a slice, without allocating one per query.
func (sel *selection) draw(rng *rand.Rand, active []ServerIP) netsim.IP {
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
		panic("dns: uniform draw out of range")
	case selWeighted:
		x := rng.Intn(sel.n)
		for i := range active {
			x -= weightOf(&active[i])
			if x < 0 {
				return active[i].IP
			}
		}
		panic("dns: weighted draw out of range")
	}
	return sel.ip
}

// selectFrom applies the selection policy over the active bindings: it
// is the one statement of each policy's rule. localOK gates
// PolicyNearest's in-country preference (see Server.GeoMapping).
func selectFrom(policy Policy, active []ServerIP, user geodata.Country, localOK bool) selection {
	fixed := func(ip netsim.IP) selection { return selection{kind: selFixed, ip: ip} }
	uniform := func(m matcher) (selection, bool) {
		n := m.count(active)
		return selection{kind: selUniform, m: m, n: n}, n > 0
	}
	switch policy {
	case PolicyRandom:
		sel, _ := uniform(matcher{by: matchAll})
		return sel
	case PolicyWeighted:
		total := 0
		for i := range active {
			total += weightOf(&active[i])
		}
		return selection{kind: selWeighted, n: total}
	case PolicyLatency:
		best, bestRTT := 0, -1.0
		for i, sv := range active {
			d := geodata.DistanceKm(user, sv.Country)
			if d < 0 {
				d = 1e9
			}
			rtt := geodata.MinRTTms(d)
			if bestRTT < 0 || rtt < bestRTT {
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
		// HQ policy still has only the org's deployments to choose from;
		// prefer the first (registration order puts HQ blocks first in
		// practice) — deterministically the lowest IP.
		return fixed(active[0].IP)
	case PolicyContinent:
		if sel, ok := uniform(matcher{by: matchContinent, cont: geodata.ContinentOf(user)}); ok {
			return sel
		}
		// No server on the user's continent: serve from the nearest
		// region (a South American user of a US/EU service lands in the
		// US, not on a random European PoP).
		return fixed(nearestServer(active, user))
	default: // PolicyNearest
		// 1. Same country, when the geo mapping for it is active.
		if localOK {
			if sel, ok := uniform(matcher{by: matchCountry, country: user}); ok {
				return sel
			}
		}
		// 2. Nearest within the user's continent (Europe is treated as
		// one continent: EU28 + Rest of Europe). With an inactive local
		// mapping, in-country servers are skipped: the geo-DNS routes
		// the user's region to a neighboring serving site.
		cont := geodata.ContinentOf(user)
		best, bestDist := -1, 0.0
		for i, sv := range active {
			if !localOK && sv.Country == user {
				continue
			}
			if !sameEurope(geodata.ContinentOf(sv.Country), cont) {
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
		// 3. Globally nearest.
		return fixed(nearestServer(active, user))
	}
}

// weightOf returns a binding's PolicyWeighted draw weight (zero = 1).
func weightOf(sv *ServerIP) int {
	if sv.Weight <= 0 {
		return 1
	}
	return sv.Weight
}

// nearestServer returns the active server geographically closest to the
// user (deterministic: ties resolve to the lowest-IP server because the
// zone's servers are kept sorted).
func nearestServer(active []ServerIP, user geodata.Country) netsim.IP {
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

// sameEurope reports whether two regions count as the same continent for
// server selection; EU28 and Rest-of-Europe are both "Europe".
func sameEurope(a, b geodata.Continent) bool {
	if a == b {
		return true
	}
	isEU := func(c geodata.Continent) bool {
		return c == geodata.EU28 || c == geodata.RestOfEurope
	}
	return isEU(a) && isEU(b)
}
