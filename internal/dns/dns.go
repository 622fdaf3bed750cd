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
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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

// entry is the zone data for one FQDN, compiled by Register. A
// binding's activity changes only at its window edges, so between two
// consecutive edges of a zone its active set is constant: the zone
// keeps the sorted distinct edges and, for each region they cut the
// time axis into, the active set as a list of binding indices.
type entry struct {
	org     string
	policy  Policy
	ttl     time.Duration
	servers []ServerIP
	// binds[i] is what selection reads of servers[i].
	binds []binding
	// edges are the distinct From and To instants, ascending. They cut
	// the time axis into regions: region 2i is the open interval just
	// before edges[i] (region 0 is everything before edges[0]), region
	// 2i+1 is the instant edges[i] itself, since ActiveAt is inclusive
	// at both ends, and region 2·len(edges) is everything after the
	// last edge. The first and last regions are outside every window.
	edges []time.Time
	// active holds each inner region's set: region r (0 < r <
	// 2·len(edges)) is active[active[2r-2]:][:active[2r-1]], an offset
	// and a length. The sets follow the pairs: first the identity list
	// 0..len(servers)-1, which every all-active region uses, then each
	// distinct partial set once.
	active []int32
}

// binding is one server's selection metadata: its address, its
// country's geodata.Index (-1 for a code geodata does not know) and
// its continent.
type binding struct {
	ip      netsim.IP
	country int16
	cont    geodata.Continent
}

// compile fills the entry's binds, edges and active from its sorted
// servers.
func compile(e *entry) {
	n := len(e.servers)
	e.binds = make([]binding, n)
	edges := make([]time.Time, 0, 2*n)
	for i, sv := range e.servers {
		ci, ok := geodata.Index(sv.Country)
		if !ok {
			ci = -1
		}
		e.binds[i] = binding{ip: sv.IP, country: int16(ci), cont: geodata.ContinentOf(sv.Country)}
		edges = append(edges, sv.From, sv.To)
	}
	slices.SortFunc(edges, time.Time.Compare)
	e.edges = slices.CompactFunc(edges, time.Time.Equal)

	inner := 2*len(e.edges) - 1
	active := make([]int32, 2*inner, 2*inner+n)
	for i := range n {
		active = append(active, int32(i))
	}
	// Identical partial sets share one list, found by their bytes.
	var seen map[string]int32
	var set []int32
	var key []byte
	for r := 1; r <= inner; r++ {
		set = set[:0]
		for i, sv := range e.servers {
			var on bool
			if r%2 == 1 {
				on = sv.ActiveAt(e.edges[r/2])
			} else {
				// The open interval (edges[r/2-1], edges[r/2]): no edge
				// lies inside it, so a binding covers all of it or none.
				on = !sv.From.After(e.edges[r/2-1]) && !sv.To.Before(e.edges[r/2])
			}
			if on {
				set = append(set, int32(i))
			}
		}
		off := int32(2 * inner)
		if len(set) < n {
			key = appendKey(key[:0], set)
			var ok bool
			if off, ok = seen[string(key)]; !ok {
				if seen == nil {
					seen = make(map[string]int32)
				}
				off = int32(len(active))
				active = append(active, set...)
				seen[string(key)] = off
			}
		}
		active[2*r-2], active[2*r-1] = off, int32(len(set))
	}
	e.active = active
}

// appendKey appends the bytes of s to key.
func appendKey(key []byte, s []int32) []byte {
	for _, v := range s {
		key = binary.LittleEndian.AppendUint32(key, uint32(v))
	}
	return key
}

// intern replaces the entry's edges and active sets with the server's
// copies of equal content, storing them the first time they are seen:
// zones whose bindings share their windows share their compiled
// regions, and every shared copy is exactly as long as its content.
// The caller holds mu.
func (s *Server) intern(e *entry) {
	var key []byte
	for _, t := range e.edges {
		key = binary.AppendVarint(key, t.Unix())
		key = binary.AppendVarint(key, int64(t.Nanosecond()))
	}
	if edges, ok := s.edgeLists[string(key)]; ok {
		e.edges = edges
	} else {
		e.edges = exact(e.edges)
		s.edgeLists[string(key)] = e.edges
	}
	key = appendKey(key[:0], e.active)
	if active, ok := s.activeLists[string(key)]; ok {
		e.active = active
	} else {
		e.active = exact(e.active)
		s.activeLists[string(key)] = e.active
	}
}

// exact returns s in an array of exactly its length: compiled zones
// live as long as the world, so they keep no growth slack.
func exact[T any](s []T) []T {
	return append(make([]T, 0, len(s)), s...)
}

// activeAt returns the indices of the bindings whose windows cover t:
// a binary search for t's region, then that region's set.
func (e *entry) activeAt(t time.Time) []int32 {
	lo, hi := 0, len(e.edges)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if e.edges[h].Before(t) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	r := 2 * lo
	if lo < len(e.edges) && e.edges[lo].Equal(t) {
		r++
	}
	if r == 0 || r == 2*len(e.edges) {
		return nil
	}
	off, n := e.active[2*r-2], e.active[2*r-1]
	return e.active[off : off+n]
}

// asker is the querying user's country, looked up once per query.
type asker struct {
	code geodata.Country
	idx  int // geodata.Index; -1 when unknown
	cont geodata.Continent
}

func newAsker(c geodata.Country) asker {
	i, ok := geodata.Index(c)
	if !ok {
		i = -1
	}
	return asker{code: c, idx: i, cont: geodata.ContinentOf(c)}
}

// inCountry reports whether binding i sits in the user's country.
// Codes geodata does not know have no index, so they compare by name.
func (e *entry) inCountry(i int32, u *asker) bool {
	if u.idx >= 0 {
		return int(e.binds[i].country) == u.idx
	}
	return e.binds[i].country < 0 && e.servers[i].Country == u.code
}

// distanceKm is geodata.DistanceKm from the user to binding i.
func (e *entry) distanceKm(i int32, u *asker) float64 {
	c := e.binds[i].country
	if u.idx < 0 || c < 0 {
		return -1
	}
	return geodata.DistanceKmAt(u.idx, int(c))
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
//
// Register compiles each zone once: the sorted distinct edges of its
// bindings' activity windows, the active set of each region between
// and at those edges as a list of binding indices, and each binding's
// country index and continent. Identical sets within a zone are stored
// once, and zones with equal edges or equal set lists share them. A
// query then costs a binary search over the zone's edges (two or three
// in a generated world) plus one pass of the policy over the active
// set, comparing small ints and reading geodata.DistanceKmAt. The
// compiled form holds no query state, so zones compile without Freeze
// and a re-registered zone simply recompiles.
type Server struct {
	// mu guards zones during construction: the scenario's world build
	// registers planned zones from a worker pool. Distinct FQDNs
	// commute, so the final zone map is independent of registration
	// order. The read path never takes the lock — Freeze publishes the
	// map and Register panics afterwards.
	mu     sync.Mutex
	zones  map[string]*entry
	frozen bool
	// edgeLists and activeLists index the zones' compiled edges and
	// active sets by content for sharing (see intern). Freeze drops
	// them.
	edgeLists   map[string][]time.Time
	activeLists map[string][]int32
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
	return &Server{
		zones:       make(map[string]*entry),
		edgeLists:   make(map[string][]time.Time),
		activeLists: make(map[string][]int32),
		log:         logFn,
	}
}

// Freeze marks zone construction finished. Resolve is safe for
// concurrent readers afterwards; further Register calls panic. Freeze
// takes the construction lock, so it orders correctly against parallel
// registrations that are still completing.
func (s *Server) Freeze() {
	s.mu.Lock()
	s.frozen = true
	s.edgeLists, s.activeLists = nil, nil
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
	compile(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		panic("dns: Register after Freeze")
	}
	s.intern(e)
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
// after Freeze (each goroutine with its own rng). Its cost does not
// depend on t: the zone lookup, a binary search of the zone's few
// window edges for t's region, the GeoMapping call, and the policy's
// pass over that region's precompiled active set. It copies no binding
// and allocates nothing.
func (s *Server) Resolve(rng *rand.Rand, fqdn string, userCountry geodata.Country, t time.Time) (netsim.IP, error) {
	e, ok := s.zones[fqdn]
	if !ok {
		return 0, ErrNXDomain
	}
	active := e.activeAt(t)
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
	u := newAsker(userCountry)
	sel := e.selectFrom(policy, active, &u, localOK)
	ip := sel.draw(rng, e, active)
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
// the zones: the zone lookup, the region lookup, the GeoMapping
// verdict and each candidate policy's deterministic part are done
// once, leaving only the draws for Pick. A Plan shares its zone's
// compiled active set, so planning copies no binding either. A Plan is
// immutable and safe for concurrent Picks (each goroutine with its own
// rng).
type Plan struct {
	err    error
	e      *entry
	active []int32
	// spill is the server's Spill for a PolicyNearest zone, zero
	// otherwise; alt is the PolicyContinent selection a spill serves.
	spill     float64
	main, alt selection
	fqdn      string
	at        time.Time
	log       func(Resolution)
}

// Plan compiles a query. It reads Spill and GeoMapping as they are
// now, so set both before planning. Every Pick logs the time the plan
// was compiled for, t.
func (s *Server) Plan(fqdn string, userCountry geodata.Country, t time.Time) *Plan {
	p := &Plan{fqdn: fqdn, at: t, log: s.log}
	e, ok := s.zones[fqdn]
	if !ok {
		p.err = ErrNXDomain
		return p
	}
	p.e, p.active = e, e.activeAt(t)
	if len(p.active) == 0 {
		p.err = ErrNoActiveServer
		return p
	}
	u := newAsker(userCountry)
	localOK := true
	if e.policy == PolicyNearest {
		if s.GeoMapping != nil {
			localOK = s.GeoMapping(fqdn, userCountry, t)
		}
		p.spill = s.Spill
		p.alt = e.selectFrom(PolicyContinent, p.active, &u, localOK)
	}
	p.main = e.selectFrom(e.policy, p.active, &u, localOK)
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
	ip := sel.draw(rng, p.e, p.active)
	if p.log != nil {
		p.log(Resolution{FQDN: p.fqdn, IP: ip, At: p.at})
	}
	return ip, nil
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
	by matchBy
	u  asker // matchCountry, matchContinent (Europe counts as one)
}

type matchBy uint8

const (
	matchAll matchBy = iota
	matchCountry
	matchContinent
)

func (m *matcher) ok(e *entry, i int32) bool {
	switch m.by {
	case matchCountry:
		return e.inCountry(i, &m.u)
	case matchContinent:
		return sameEurope(e.binds[i].cont, m.u.cont)
	}
	return true
}

// count returns how many of the active bindings m accepts.
func (m *matcher) count(e *entry, active []int32) int {
	n := 0
	for _, i := range active {
		if m.ok(e, i) {
			n++
		}
	}
	return n
}

// draw completes the selection over the active set it was made from.
// Count-then-select keeps a uniform draw identical to collecting the
// matches into a slice, without allocating one per query.
func (sel *selection) draw(rng *rand.Rand, e *entry, active []int32) netsim.IP {
	switch sel.kind {
	case selUniform:
		n := rng.Intn(sel.n)
		for _, i := range active {
			if sel.m.ok(e, i) {
				if n == 0 {
					return e.binds[i].ip
				}
				n--
			}
		}
		panic("dns: uniform draw out of range")
	case selWeighted:
		x := rng.Intn(sel.n)
		for _, i := range active {
			x -= weightOf(&e.servers[i])
			if x < 0 {
				return e.binds[i].ip
			}
		}
		panic("dns: weighted draw out of range")
	}
	return sel.ip
}

// selectFrom applies the selection policy over the active bindings: it
// is the one statement of each policy's rule. localOK gates
// PolicyNearest's in-country preference (see Server.GeoMapping).
func (e *entry) selectFrom(policy Policy, active []int32, u *asker, localOK bool) selection {
	fixed := func(i int32) selection { return selection{kind: selFixed, ip: e.binds[i].ip} }
	uniform := func(by matchBy) (selection, bool) {
		m := matcher{by: by, u: *u}
		n := m.count(e, active)
		return selection{kind: selUniform, m: m, n: n}, n > 0
	}
	switch policy {
	case PolicyRandom:
		sel, _ := uniform(matchAll)
		return sel
	case PolicyWeighted:
		total := 0
		for _, i := range active {
			total += weightOf(&e.servers[i])
		}
		return selection{kind: selWeighted, n: total}
	case PolicyLatency:
		best, bestRTT := active[0], -1.0
		for _, i := range active {
			d := e.distanceKm(i, u)
			if d < 0 {
				d = 1e9
			}
			rtt := geodata.MinRTTms(d)
			if bestRTT < 0 || rtt < bestRTT {
				best, bestRTT = i, rtt
			}
		}
		return fixed(best)
	case PolicyFailover:
		best := active[0]
		for _, i := range active[1:] {
			if e.servers[i].Weight > e.servers[best].Weight {
				best = i
			}
		}
		return fixed(best)
	case PolicyHQ:
		// HQ policy still has only the org's deployments to choose from;
		// prefer the first (registration order puts HQ blocks first in
		// practice) — deterministically the lowest IP.
		return fixed(active[0])
	case PolicyContinent:
		if sel, ok := uniform(matchContinent); ok {
			return sel
		}
		// No server on the user's continent: serve from the nearest
		// region (a South American user of a US/EU service lands in the
		// US, not on a random European PoP).
		return fixed(e.nearest(active, u))
	default: // PolicyNearest
		// 1. Same country, when the geo mapping for it is active.
		if localOK {
			if sel, ok := uniform(matchCountry); ok {
				return sel
			}
		}
		// 2. Nearest within the user's continent (Europe is treated as
		// one continent: EU28 + Rest of Europe). With an inactive local
		// mapping, in-country servers are skipped: the geo-DNS routes
		// the user's region to a neighboring serving site.
		best, bestDist := int32(-1), 0.0
		for _, i := range active {
			if !localOK && e.inCountry(i, u) {
				continue
			}
			if !sameEurope(e.binds[i].cont, u.cont) {
				continue
			}
			d := e.distanceKm(i, u)
			if d < 0 {
				continue
			}
			if best == -1 || d < bestDist {
				best, bestDist = i, d
			}
		}
		if best >= 0 {
			return fixed(best)
		}
		// 3. Globally nearest.
		return fixed(e.nearest(active, u))
	}
}

// weightOf returns a binding's PolicyWeighted draw weight (zero = 1).
func weightOf(sv *ServerIP) int {
	if sv.Weight <= 0 {
		return 1
	}
	return sv.Weight
}

// nearest returns the active binding geographically closest to the
// user (deterministic: ties resolve to the lowest-IP server because the
// zone's servers are kept sorted).
func (e *entry) nearest(active []int32, u *asker) int32 {
	best, bestDist := active[0], -1.0
	for _, i := range active {
		d := e.distanceKm(i, u)
		if d < 0 {
			d = 1e9
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
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
