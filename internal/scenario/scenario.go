// Package scenario assembles the calibrated synthetic world every
// experiment runs against: the web graph, the organizations' datacenter
// footprints and IP space, DNS zones with geo-aware selection policies,
// the passive-DNS feed, the filter lists, the browsing simulation with
// its classified dataset, the tracker IP inventory, the geolocation
// services, and the sensitive-site identification.
//
// All calibration knobs live in Params; the defaults were tuned so the
// shape of every table and figure in the paper holds (EXPERIMENTS.md
// indexes the artifacts; the experiments package's tests pin the
// paper-vs-measured bands).
package scenario

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"crossborder/internal/blocklist"
	"crossborder/internal/browser"
	"crossborder/internal/classify"
	"crossborder/internal/dns"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/netflow"
	"crossborder/internal/netsim"
	"crossborder/internal/pdns"
	"crossborder/internal/sensitive"
	"crossborder/internal/trackerdb"
	"crossborder/internal/webgraph"
)

// Params controls world construction.
type Params struct {
	// Seed drives every random choice; same seed, same world.
	Seed int64
	// Scale multiplies population sizes (1.0 = the paper's scale:
	// 350 users, 5,693 sites, 7.2M third-party requests). Tests use
	// small fractions.
	Scale float64
	// VisitsPerUser overrides the mean page visits per user (0 = scaled
	// default of 219).
	VisitsPerUser int
	// SkipSensitive disables the §6 identification pass (cheap to keep
	// on; exposed for ablation).
	SkipSensitive bool
	// Workers sets the simulation/classification worker-pool size
	// (0 = runtime.GOMAXPROCS). Any value produces the same Dataset
	// byte for byte: users browse on private RNG streams derived from
	// (Seed, user ID), and the per-worker collector shards merge in user
	// order. 1 forces the sequential baseline.
	Workers int
	// Progress, when non-nil, receives per-phase progress events from
	// BuildContext (phase name, items done/total, elapsed). Events for a
	// phase are monotone in Done; simulation events arrive from worker
	// goroutines but delivery is serialized, so the callback itself need
	// not be goroutine-safe. Progress never influences the built world:
	// the same Params produce the same Scenario with or without it.
	Progress func(PhaseEvent)
	// RowSink, when non-nil, supplies the row store the classification
	// phase streams the merged dataset into (e.g. a spilled
	// classify.MemStore for Scale >> 1 runs). nil selects the default
	// wide store. The merged row stream is identical for every store
	// layout; only the storage differs.
	RowSink func() (*classify.MemStore, error)
	// Mutators, when non-nil, installs a scenario pack's deterministic
	// world mutations and per-user profiles (see Mutators). nil — the
	// default pack — builds the unmodified study, byte for byte.
	Mutators *Mutators
}

func (p Params) withDefaults() Params {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Scale == 0 {
		p.Scale = 1
	}
	return p
}

// Scenario is the assembled world.
type Scenario struct {
	Params Params

	Graph *webgraph.Graph
	World *netsim.World
	DNS   *dns.Server
	PDNS  *pdns.DB

	Users   []*browser.User
	Dataset *classify.Dataset

	EasyList    *blocklist.List
	EasyPrivacy *blocklist.List

	Inventory *trackerdb.Inventory

	Truth   geo.Truth
	MaxMind *geo.CommercialDB
	IPAPI   *geo.DerivedDB
	IPMap   *geo.IPMap

	Identification *sensitive.Identification

	// Start/End bound the extension study; DNS bindings stay valid
	// through ISPEnd so the §7 ISP snapshots (through June 2018) can be
	// scanned against the inventory.
	Start, End, ISPEnd time.Time

	// orgClouds caches per-org cloud providers for the locality engine.
	orgClouds map[string][]geodata.CloudProvider
}

// FlowServices returns the three geolocation services every flow map is
// joined with, in the order truth, IPmap, MaxMind: the order of the
// analyses core.Join returns for them.
func (s *Scenario) FlowServices() []geo.Service {
	return []geo.Service{s.Truth, s.IPMap, s.MaxMind}
}

// Study period constants.
var (
	studyStart = time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)
	studyEnd   = time.Date(2018, 1, 15, 0, 0, 0, 0, time.UTC)
	ispEnd     = time.Date(2018, 8, 1, 0, 0, 0, 0, time.UTC)
)

// Build assembles the world. At Scale=1 this simulates the full 7.2M
// request study and takes tens of seconds; tests should pass 0.02–0.1.
//
// Build is the non-cancellable entry point; it is BuildContext over
// context.Background().
func Build(p Params) *Scenario {
	s, err := BuildContext(context.Background(), p)
	if err != nil {
		// Unreachable: the background context never cancels and
		// cancellation is the only error source.
		panic("scenario: " + err.Error())
	}
	return s
}

// BuildContext assembles the world as a staged pipeline — world/zones,
// simulation, classification, inventory, geolocation, sensitive — with
// cancellation checkpoints between and inside phases and per-phase
// progress events through Params.Progress. On cancellation it returns
// (nil, ctx.Err()) promptly and leaves no goroutines behind: the
// simulation workers drain before the call returns.
func BuildContext(ctx context.Context, p Params) (*Scenario, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p = p.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	prog := newProgress(p.Progress)
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	s, err := buildWorldBase(ctx, p, rng, prog, workers)
	if err != nil {
		return nil, err
	}

	// The browsing study: users fan out over a worker pool, each on a
	// private RNG stream, each worker capturing into its own collector
	// shard; the shards merge into one Dataset in user order. The result
	// is invariant to Workers (see Params.Workers).
	s.Users = browser.MakeUsers(scalePopulation(browser.DefaultPopulation(), p.Scale))
	visits := p.VisitsPerUser
	if visits == 0 {
		visits = 219
	}
	prog.startPhase(PhaseSimulate, len(s.Users))
	collector := classify.NewShardedCollector(s.Graph, s.EasyList, s.EasyPrivacy, studyStart, workers)
	sim := browser.NewSimulator(s.Graph, s.DNS, browser.Config{
		Start: studyStart, End: studyEnd, VisitsPerUser: visits,
		ProfileFor: p.profileHook(),
	})
	err = sim.RunWorkersContext(ctx, p.Seed, s.Users, workers, func(w int) []browser.Sink {
		return []browser.Sink{collector.Shard(w)}
	}, func(int) { prog.tick(1) })
	if err != nil {
		return nil, err
	}
	prog.finishPhase()

	prog.startPhase(PhaseClassify, 1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The merge streams rows into the configured store; the default is
	// the wide store, Scale >> 1 runs swap in a spilled one via
	// Params.RowSink.
	var sink *classify.MemStore
	if p.RowSink != nil {
		var err error
		if sink, err = p.RowSink(); err != nil {
			return nil, err
		}
	} else {
		sink = classify.NewMemStore()
	}
	s.Dataset, err = collector.FinalizeInto(s.Users, sink)
	if err != nil {
		return nil, err
	}
	prog.finishPhase()

	// From here on the dataset owns the (possibly disk-backed) row
	// store; error returns must release it or a cancelled build would
	// leak the spill file for the process lifetime.
	fail := func(err error) (*Scenario, error) {
		s.Dataset.Close()
		return nil, err
	}

	// Tracker IP inventory.
	prog.startPhase(PhaseInventory, 1)
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	s.Inventory = trackerdb.Compile(s.Dataset, s.PDNS)
	prog.finishPhase()

	// Geolocation services: one tick per service.
	prog.startPhase(PhaseGeolocate, 4)
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	s.buildGeoServices(prog)

	if !p.SkipSensitive {
		prog.startPhase(PhaseSensitive, 1)
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		s.Identification = sensitive.Identify(rng, s.Graph, sensitive.ExaminerConfig{})
		prog.finishPhase()
	}
	return s, nil
}

// buildWorldBase runs the shared front of the pipeline: web graph,
// organization footprints, DNS zones, pDNS feed, and the generated
// filter lists. It consumes the rng draws of the world phase and leaves
// the resolver frozen.
func buildWorldBase(ctx context.Context, p Params, rng *rand.Rand, prog *progress, workers int) (*Scenario, error) {
	s := &Scenario{
		Params:    p,
		Start:     studyStart,
		End:       studyEnd,
		ISPEnd:    ispEnd,
		PDNS:      pdns.NewDB(),
		orgClouds: make(map[string][]geodata.CloudProvider),
	}

	s.Graph = webgraph.Build(rng, webgraph.Config{}.Scale(p.Scale))
	// World-phase progress counts each service twice: once through the
	// org-footprint pass, once through the zone-construction pass.
	prog.startPhase(PhaseWorld, 2*len(s.Graph.Services))
	s.World = netsim.NewWorld()
	s.DNS = dns.NewServer(nil)
	// Imperfect geo load balancing: a slice of nearest-policy answers
	// land on other same-continent PoPs. This spreads observations over
	// the orgs' full footprints (keeping the pDNS-only extras small,
	// §3.3) and contributes the intra-European border crossings of Fig 8.
	s.DNS.Spill = 0.08
	// Geo-DNS country mappings churn over ~45-day epochs: whether a
	// tracker's in-country servers actually receive that country's users
	// depends on capacity planning, and the probability scales with the
	// country's infrastructure density (Frankfurt is always on; Madrid
	// often routes to Paris). This single mechanism yields both the
	// paper's Table 5 headroom (alternatives observed in other epochs)
	// and Fig 12's high German national confinement.
	s.DNS.GeoMapping = func(fqdn string, user geodata.Country, t time.Time) bool {
		epoch := int64(t.Sub(studyStart) / (45 * 24 * time.Hour))
		q := 0.30 + float64(geodata.InfraDensity(user))/140
		if q > 0.93 {
			q = 0.93
		}
		return hashCoin(fqdn, string(user), epoch) < q
	}

	b := &worldBuilder{s: s, rng: rng, ctx: ctx, prog: prog, workers: workers}
	if err := b.build(); err != nil {
		return nil, err
	}

	// Filter lists over the finished graph. Generating them before the
	// pack hook runs is deliberate: hostnames a pack adds afterwards
	// (CNAME cloaking, first-party delegation) are exactly the ones real
	// filter lists lag behind on.
	elText, epText := blocklist.Generate(rng, s.Graph, blocklist.Coverage{})
	var errs []error
	s.EasyList, errs = blocklist.Parse("easylist", elText)
	if len(errs) != 0 {
		panic("scenario: generated easylist failed to parse")
	}
	s.EasyPrivacy, errs = blocklist.Parse("easyprivacy", epText)
	if len(errs) != 0 {
		panic("scenario: generated easyprivacy failed to parse")
	}

	// Scenario-pack world mutations: the one point where the world is
	// fully built but still unfrozen. The hook draws only from its
	// pack-private rng, so the shared rng's draw sequence above is
	// byte-identical with or without a pack.
	p.applyWorldHook(s)

	s.World.Freeze()
	// Zone construction is done; freezing makes the resolver provably
	// read-only for concurrent browsing or upload-classification workers.
	s.DNS.Freeze()
	prog.finishPhase()
	return s, nil
}

// buildGeoServices constructs the four geolocation services. The caller
// starts the 4-tick geolocate phase.
func (s *Scenario) buildGeoServices(prog *progress) {
	s.Truth = geo.Truth{World: s.World}
	prog.tick(1)
	s.MaxMind = geo.NewMaxMind(s.World)
	prog.tick(1)
	s.IPAPI = geo.NewIPAPI(s.MaxMind)
	prog.tick(1)
	s.IPMap = geo.NewIPMap(s.World, geo.DefaultMesh())
	prog.tick(1)
}

// BuildWorld is BuildWorldContext over context.Background().
func BuildWorld(p Params) *Scenario {
	s, err := BuildWorldContext(context.Background(), p)
	if err != nil {
		// Unreachable: the background context never cancels and
		// cancellation is the only error source.
		panic("scenario: " + err.Error())
	}
	return s
}

// BuildWorldContext assembles everything except the browsing study: the
// web graph, DNS zones and pDNS feed, filter lists, user population,
// geolocation services, and the sensitive-site identification — but no
// simulated events, so Dataset and Inventory are nil. The returned
// world consumes exactly the rng draws the full build would (the
// simulation runs on private per-user streams, and the classify and
// inventory phases draw nothing), so a live collector built on this
// world classifies uploaded events against byte-for-byte the same
// graph, zones, lists, and identification as the batch study with the
// same Params.
func BuildWorldContext(ctx context.Context, p Params) (*Scenario, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p = p.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	prog := newProgress(p.Progress)
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s, err := buildWorldBase(ctx, p, rng, prog, workers)
	if err != nil {
		return nil, err
	}
	s.Users = browser.MakeUsers(scalePopulation(browser.DefaultPopulation(), p.Scale))
	prog.startPhase(PhaseGeolocate, 4)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.buildGeoServices(prog)
	if !p.SkipSensitive {
		prog.startPhase(PhaseSensitive, 1)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.Identification = sensitive.Identify(rng, s.Graph, sensitive.ExaminerConfig{})
		prog.finishPhase()
	}
	return s, nil
}

// hashCoin returns a deterministic pseudo-uniform float64 in [0,1) from
// the mapping key, so geo-DNS activation is stable within an epoch.
func hashCoin(fqdn, country string, epoch int64) float64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(fqdn)
	mix(country)
	h ^= uint64(epoch) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h>>11) / float64(1<<53)
}

// scalePopulation shrinks the 350-user population proportionally,
// keeping at least one user in every country that had any.
func scalePopulation(pop []browser.CountryCount, scale float64) []browser.CountryCount {
	if scale >= 1 {
		return pop
	}
	out := make([]browser.CountryCount, 0, len(pop))
	for _, cc := range pop {
		n := int(math.Round(float64(cc.Users) * scale))
		if n < 1 {
			n = 1
		}
		out = append(out, browser.CountryCount{Country: cc.Country, Users: n})
	}
	return out
}

// OrgClouds implements locality.OrgClouds over the world: it reports the
// cloud providers hosting the organization that owns an FQDN.
func (s *Scenario) OrgClouds(fqdn string) []geodata.CloudProvider {
	svc, ok := s.Graph.ServiceByFQDN(fqdn)
	if !ok {
		return nil
	}
	return s.orgClouds[svc.Org]
}

// FQDNWeights derives tracking-FQDN popularity from the extension
// dataset's request counts, the profile the ISP synthesizer replays.
// The slice is sorted by FQDN name: the synthesizer samples weights
// positionally from a seeded rng, so the order must be canonical — a
// map-order (or even interner-id, i.e. row-arrival-order) slice would
// make the §7 ISP tables drift between a batch build and a
// cluster-merged dataset holding the very same rows.
func (s *Scenario) FQDNWeights() []netflow.FQDNWeight {
	counts := make([]int64, s.Dataset.FQDNs.Len())
	s.Dataset.ScanCols(func(_ int, pc *classify.ProjChunk) {
		if !classify.AnyTracking(pc.Class) {
			return
		}
		fqdns := pc.Wide(classify.ColFQDN)
		for i, cls := range pc.Class {
			if cls.IsTracking() {
				counts[fqdns[i]]++
			}
		}
	})
	var out []netflow.FQDNWeight
	for id, n := range counts {
		if n > 0 {
			out = append(out, netflow.FQDNWeight{FQDN: s.Dataset.FQDNs.Str(uint32(id)), Weight: float64(n)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FQDN < out[j].FQDN })
	return out
}

// TrackingShareOfRows returns the fraction of third-party requests
// classified as tracking (Fig 2's takeaway).
func (s *Scenario) TrackingShareOfRows() float64 {
	var tracking int64
	if s.Dataset == nil || s.Dataset.Store == nil {
		return 0
	}
	st := s.Dataset.Store
	// Class-only scan: the resident class column answers this without
	// touching the (possibly spilled) wide columns.
	for ci := 0; ci < st.NumChunks(); ci++ {
		for _, cls := range st.Classes(ci) {
			if cls.IsTracking() {
				tracking++
			}
		}
	}
	if st.Len() == 0 {
		return 0
	}
	return float64(tracking) / float64(st.Len())
}
