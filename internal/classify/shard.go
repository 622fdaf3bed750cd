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
// private interner, publisher/country index, classification caches and
// per-user row buffers), so the capture path is lock-free; Finalize then
// merges the shards deterministically.
//
// The shard/merge contract: every user's full event stream lands in
// exactly one shard (browser.Simulator.RunWorkers guarantees this), and
// the merge walks users in a caller-chosen global order, re-interning
// strings and remapping publisher/country ids in encounter order. Because
// per-user row order is fixed by the user's private RNG stream and the
// merge order is fixed by the caller, the merged Dataset is byte-for-byte
// identical no matter how many shards collected it or which shard
// captured which user.
type ShardedCollector struct {
	graph       *webgraph.Graph
	easylist    *blocklist.List
	easyprivacy *blocklist.List
	start       time.Time
	// memoOK gates the per-(FQDN, path, page-domain) verdict cache: it is
	// only sound when both lists' outcomes cannot depend on the query
	// string (true for the generated easylist/easyprivacy).
	memoOK bool
	shards []*Shard
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
		memoOK:      easylist.Memoizable() && easyprivacy.Memoizable(),
	}
	c.shards = make([]*Shard, workers)
	for w := range c.shards {
		c.shards[w] = &Shard{
			c:          c,
			interner:   NewInterner(),
			countryIdx: make(map[geodata.Country]uint8),
			pubIdx:     make(map[*webgraph.Publisher]int32),
			cur:        -1,
			meta:       make(map[string]fqdnMeta),
			verdict:    make(map[verdictKey]bool),
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
// interner id and the generator-side ground truth.
type fqdnMeta struct {
	id    uint32
	truth bool
}

// verdictKey addresses one memoized filter-list verdict. path excludes
// the query string; see blocklist.List.Memoizable for why that is sound.
type verdictKey struct {
	fqdn, path, page string
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
	caps       []userCapture
	cur        int // index into caps of the user currently streaming
	meta       map[string]fqdnMeta
	verdict    map[verdictKey]bool
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
	pid, ok := sh.pubIdx[p]
	if !ok {
		pid = int32(len(sh.pubs))
		sh.pubIdx[p] = pid
		sh.pubs = append(sh.pubs, p)
	}
	cap.visits = append(cap.visits, pid)
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
	pid, ok := sh.pubIdx[ev.Publisher]
	if !ok {
		pid = int32(len(sh.pubs))
		sh.pubIdx[ev.Publisher] = pid
		sh.pubs = append(sh.pubs, ev.Publisher)
	}
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
	if sh.stage1(ev.Call.FQDN, ev.Call.Path, ev.Publisher.Domain) {
		row.Class = ClassABP
	} else {
		row.Class = ClassClean
	}
	cap.rows = append(cap.rows, row)
}

// fqdnMetaFor memoizes the interner id and ground-truth role of an FQDN,
// collapsing two map lookups (interner + service registry) into one on
// the hot path.
func (sh *Shard) fqdnMetaFor(fqdn string) fqdnMeta {
	if m, ok := sh.meta[fqdn]; ok {
		return m
	}
	m := fqdnMeta{id: sh.interner.ID(fqdn)}
	if svc, ok := sh.c.graph.ServiceByFQDN(fqdn); ok && svc.Role.IsTracking() {
		m.truth = true
	}
	sh.meta[fqdn] = m
	return m
}

// stage1 returns the filter-list verdict, memoized per (FQDN,
// path-sans-query, page domain) when the lists allow it.
func (sh *Shard) stage1(fqdn, path, page string) bool {
	if !sh.c.memoOK {
		return sh.c.matchLists(fqdn, path, page)
	}
	pk := path
	if i := strings.IndexByte(pk, '?'); i >= 0 {
		pk = pk[:i]
	}
	k := verdictKey{fqdn: fqdn, path: pk, page: page}
	v, ok := sh.verdict[k]
	if !ok {
		v = sh.c.matchLists(fqdn, path, page)
		sh.verdict[k] = v
	}
	return v
}

// matchLists runs the real (uncached) stage-1 match. The URL string is
// materialized only here, i.e. only on verdict-cache misses.
func (c *ShardedCollector) matchLists(fqdn, path, page string) bool {
	q := blocklist.Request{URL: "https://" + fqdn + path, PageDomain: page}
	return c.easylist.Match(q) || c.easyprivacy.Match(q)
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

// mergeInto replays the captures in the given order into the sink,
// re-interning strings and remapping publisher/country ids exactly as a
// sequential collector would have assigned them: per user, visits first
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
