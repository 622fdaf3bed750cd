package classify

import (
	"strings"
	"time"

	"crossborder/internal/blocklist"
	"crossborder/internal/browser"
	"crossborder/internal/geodata"
	"crossborder/internal/webgraph"
)

// ShardedCollector builds the classified Dataset from a parallel browser
// simulation. Each worker drives its own Shard (a browser.Sink with a
// private interner, publisher/country index, per-host compiled filter
// rules and per-user row buffers), so the capture path is lock-free;
// Finalize then merges the shards deterministically.
//
// The shard/merge contract: every user's full event stream lands in
// exactly one shard (browser.Simulator.RunWorkers guarantees this), and
// the merge walks users in a caller-chosen global order, remapping each
// shard's FQDN, publisher and country ids in encounter order. Because
// per-user row order is fixed by the user's private RNG stream and the
// merge order is fixed by the caller, the merged Dataset is byte-for-byte
// identical no matter how many shards collected it or which shard
// captured which user.
type ShardedCollector struct {
	graph       *webgraph.Graph
	easylist    *blocklist.List
	easyprivacy *blocklist.List
	start       time.Time
	shards      []*Shard
}

// NewShardedCollector returns a collector with one shard per worker.
func NewShardedCollector(graph *webgraph.Graph, easylist, easyprivacy *blocklist.List, start time.Time, workers int) *ShardedCollector {
	if workers < 1 {
		workers = 1
	}
	c := &ShardedCollector{
		graph:       graph,
		easylist:    easylist,
		easyprivacy: easyprivacy,
		start:       start,
	}
	c.shards = make([]*Shard, workers)
	for w := range c.shards {
		c.shards[w] = &Shard{
			c:          c,
			interner:   NewInterner(),
			countryIdx: make(map[geodata.Country]uint8),
			pubIdx:     make(map[*webgraph.Publisher]int32),
			cur:        -1,
			meta:       make(map[string]*fqdnMeta),
		}
	}
	return c
}

// Workers returns the number of shards.
func (c *ShardedCollector) Workers() int { return len(c.shards) }

// Shard returns worker w's sink. Each shard must be driven from a single
// goroutine; distinct shards may run concurrently.
func (c *ShardedCollector) Shard(w int) *Shard { return c.shards[w] }

// fqdnMeta caches the per-FQDN work of the request path: the shard-local
// interner id, the generator-side ground truth, the host's eTLD+1 and
// both filter lists compiled for the host. It is keyed by host alone,
// so a shard's per-host state grows with the hosts it has seen, never
// with paths or pages.
type fqdnMeta struct {
	id    uint32
	truth bool
	etld1 string
	// easylist and easyprivacy are the lists' rules for this host.
	easylist, easyprivacy blocklist.HostRules
}

// pubMeta caches the per-publisher facts stage 1 reads: the page
// domain's eTLD+1 (for the third-party bit) and its lower-cased form
// (for $domain= options).
type pubMeta struct {
	etld1, lower string
}

// userCapture is one user's complete capture inside a shard: the
// publishers visited (shard-local ids, in visit order) and the emitted
// rows (shard-local interner/publisher/country ids, in emit order).
type userCapture struct {
	user   int32
	visits []int32
	rows   []Row
}

// Shard is the per-worker capture sink.
type Shard struct {
	c          *ShardedCollector
	interner   *Interner
	countryIdx map[geodata.Country]uint8
	countries  []geodata.Country
	pubIdx     map[*webgraph.Publisher]int32
	pubs       []*webgraph.Publisher
	pubMeta    []pubMeta // beside pubs, by shard-local publisher id
	caps       []userCapture
	cur        int // index into caps of the user currently streaming
	meta       map[string]*fqdnMeta
}

// capture returns the open capture for user id, starting one if the
// stream moved to a new user.
func (sh *Shard) capture(id int32) *userCapture {
	if sh.cur < 0 || sh.caps[sh.cur].user != id {
		sh.caps = append(sh.caps, userCapture{user: id})
		sh.cur = len(sh.caps) - 1
	}
	return &sh.caps[sh.cur]
}

// OnVisit implements browser.Sink.
func (sh *Shard) OnVisit(u *browser.User, p *webgraph.Publisher, at time.Time) {
	cap := sh.capture(int32(u.ID))
	cap.visits = append(cap.visits, sh.pubID(p))
}

// pubID returns the shard-local id of p, registering it on first sight.
func (sh *Shard) pubID(p *webgraph.Publisher) int32 {
	pid, ok := sh.pubIdx[p]
	if !ok {
		pid = int32(len(sh.pubs))
		sh.pubIdx[p] = pid
		sh.pubs = append(sh.pubs, p)
		sh.pubMeta = append(sh.pubMeta, pubMeta{
			etld1: webgraph.ETLDPlusOne(p.Domain),
			lower: strings.ToLower(p.Domain),
		})
	}
	return pid
}

// OnRequest implements browser.Sink: stage-1 classification + row
// storage, all against shard-local state.
func (sh *Shard) OnRequest(ev browser.Event) {
	cap := sh.capture(int32(ev.User.ID))
	m := sh.fqdnMetaFor(ev.Call.FQDN)
	// A request normally follows its page's OnVisit in the same shard,
	// so the publisher is already registered. The live ingestion path
	// can resume a user's stream mid-visit in a different shard after an
	// epoch cut; register the publisher shard-locally then (without a
	// visit) so the row still references it — the merge resolves it to
	// the global id the original visit registered.
	pid := sh.pubID(ev.Publisher)
	row := Row{
		URLHash:   fnvAdd(fnvAdd(fnvAdd(fnvOffset, "https://"), ev.Call.FQDN), ev.Call.Path),
		IP:        ev.IP,
		FQDN:      m.id,
		RefFQDN:   sh.interner.ID(ev.Call.RefFQDN),
		Publisher: pid,
		User:      int32(ev.User.ID),
		Day:       uint16(ev.At.Sub(sh.c.start) / (24 * time.Hour)),
	}
	cID, ok := sh.countryIdx[ev.User.Country]
	if !ok {
		cID = uint8(len(sh.countries))
		sh.countryIdx[ev.User.Country] = cID
		sh.countries = append(sh.countries, ev.User.Country)
	}
	row.Country = cID

	if ev.Call.HasArgs {
		row.Flags |= FlagHasArgs
	}
	if ev.HTTPS {
		row.Flags |= FlagHTTPS
	}
	// Single-pass multi-pattern scan over the URL fragments; no lowered
	// copy, no concatenation. Non-letter boundaries make fragment-wise
	// scanning identical to scanning the full URL.
	if keywordAC.matchParts(ev.Call.FQDN, ev.Call.Path) {
		row.Flags |= FlagKeyword
	}
	if m.truth {
		row.Flags |= FlagTruthing
	}
	if sh.stage1(m, pid, ev.Call.FQDN, ev.Call.Path) {
		row.Class = ClassABP
	} else {
		row.Class = ClassClean
	}
	cap.rows = append(cap.rows, row)
}

// fqdnMetaFor returns the per-FQDN facts of the request path, built on
// the FQDN's first request in this shard: one map lookup replaces the
// interner, the service registry and the filter-list domain index.
func (sh *Shard) fqdnMetaFor(fqdn string) *fqdnMeta {
	if m, ok := sh.meta[fqdn]; ok {
		return m
	}
	m := &fqdnMeta{
		id:          sh.interner.ID(fqdn),
		etld1:       webgraph.ETLDPlusOne(fqdn),
		easylist:    sh.c.easylist.ForHost(fqdn),
		easyprivacy: sh.c.easyprivacy.ForHost(fqdn),
	}
	if svc, ok := sh.c.graph.ServiceByFQDN(fqdn); ok && svc.Role.IsTracking() {
		m.truth = true
	}
	sh.meta[fqdn] = m
	return m
}

// stage1 returns the filter-list verdict of a request for path on host
// m (fqdn) from page pid: EasyList or EasyPrivacy blocks it. The host's
// compiled rules answer it from the path and the third-party bit alone.
// A request they are not exact for (an uploaded FQDN in upper case, with
// a port or user info, or a path that does not start the URL's path,
// query or fragment) runs the interpreted List.Match on the full URL.
func (sh *Shard) stage1(m *fqdnMeta, pid int32, fqdn, path string) bool {
	pm := &sh.pubMeta[pid]
	if m.easylist.Exact && m.easyprivacy.Exact &&
		(path == "" || path[0] == '/' || path[0] == '?' || path[0] == '#') {
		third := m.etld1 != pm.etld1
		return m.easylist.Match(path, third, pm.lower) || m.easyprivacy.Match(path, third, pm.lower)
	}
	q := blocklist.Request{URL: "https://" + fqdn + path, PageDomain: sh.pubs[pid].Domain}
	return sh.c.easylist.Match(q) || sh.c.easyprivacy.Match(q)
}

// capRef addresses one user's capture inside one shard.
type capRef struct {
	sh  *Shard
	idx int
}

// FinalizeInto merges all shards in the order of users into sink (e.g.
// a wide NewMemStore, or a spilled store for Scale >> 1 runs), runs
// classification stages 2 and 3 over the merged rows, and returns the
// dataset. The collector must not be used afterwards. Users that never
// browsed are skipped. The merged stream entering the store is
// identical for every sink; only the storage layout differs.
func (c *ShardedCollector) FinalizeInto(users []*browser.User, sink *MemStore) (*Dataset, error) {
	// A user normally has exactly one capture; if a caller interleaved a
	// user's stream (which capture() tolerates by reopening them), all
	// their captures merge, in shard then arrival order.
	byUser := make(map[int32][]capRef)
	for _, sh := range c.shards {
		for i := range sh.caps {
			u := sh.caps[i].user
			byUser[u] = append(byUser[u], capRef{sh: sh, idx: i})
		}
	}
	var order []capRef
	for _, u := range users {
		order = append(order, byUser[int32(u.ID)]...)
	}
	return c.mergeInto(order, sink, true)
}

// mergeInto replays the captures in the given order into the sink
// through one Merger, which assigns ids exactly as a sequential
// collector would have: per user, visits first
// (publishers register on first visit), then rows in emit order.
// runSemi gates stages 2 and 3 (benchmarks disable them to measure the
// fixpoint in isolation).
func (c *ShardedCollector) mergeInto(order []capRef, sink *MemStore, runSemi bool) (*Dataset, error) {
	// Pre-size the merged interner from the shard interners: their
	// combined length bounds the distinct strings the merge can see, so
	// the map never rehashes mid-merge. (Shards sharing hostnames make
	// this an overestimate; the slack is transient.)
	internHint := 0
	for _, sh := range c.shards {
		internHint += sh.interner.Len()
	}
	m := NewMerger(c.start, sink, internHint)
	for _, cr := range order {
		m.AppendCapture(cr.sh, cr.idx)
	}
	if err := sink.Seal(); err != nil {
		return nil, err
	}
	ds := m.Dataset()
	if runSemi {
		RunSemiStages(ds, len(c.shards))
	}
	return ds, nil
}
