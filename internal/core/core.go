// Package core implements the paper's primary contribution: quantifying
// how many tracking flows cross data-protection borders. It joins
// classified tracking flows with a geolocation service and aggregates
// origin→destination matrices at country and continent granularity,
// producing the confinement percentages and Sankey flows of §4 (Figs 6–8)
// and §7 (Table 8, Fig 12).
package core

import (
	"runtime"
	"sort"
	"sync"

	"crossborder/internal/classify"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// Flow is the origin/destination of one tracking flow at country
// granularity. It is a small comparable value type usable as a map key,
// following the gopacket Flow idiom.
type Flow struct {
	Src, Dst geodata.Country
}

// Reverse returns the flow with endpoints swapped.
func (f Flow) Reverse() Flow { return Flow{Src: f.Dst, Dst: f.Src} }

// FastHash returns a symmetric hash: f and f.Reverse() hash identically,
// so bidirectional traffic of one pair shards together.
func (f Flow) FastHash() uint64 {
	ha := hashString(string(f.Src))
	hb := hashString(string(f.Dst))
	return ha ^ hb // XOR is symmetric
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	// Finalize so short country codes still spread.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Analysis accumulates origin→destination tracking-flow counts. The zero
// value is not ready; use NewAnalysis. Add flows, then query. Not safe
// for concurrent mutation.
type Analysis struct {
	byFlow  map[Flow]int64
	total   int64
	unknown int64
}

// NewAnalysis returns an empty accumulator.
func NewAnalysis() *Analysis {
	return &Analysis{byFlow: make(map[Flow]int64)}
}

// Add records n flows from the user country src to the tracker country dst.
func (a *Analysis) Add(src, dst geodata.Country, n int64) {
	a.byFlow[Flow{src, dst}] += n
	a.total += n
}

// AddUnknown records flows whose destination could not be geolocated.
func (a *Analysis) AddUnknown(n int64) {
	a.unknown += n
	a.total += n
}

// Total returns the number of flows recorded (including unlocatable ones).
func (a *Analysis) Total() int64 { return a.total }

// Unknown returns the number of unlocatable flows.
func (a *Analysis) Unknown() int64 { return a.unknown }

// Merge folds another accumulator into a. Counter addition commutes, so
// merging per-shard analyses in any order yields the same totals as one
// sequential pass — which is what keeps the parallel Analyze
// deterministic. The same property makes per-epoch deltas exact: a full
// rescan equals the merge of the rescans of any partition of the rows,
// which is how the live collector keeps its flow maps current without
// re-reading settled epochs.
func (a *Analysis) Merge(b *Analysis) {
	for f, n := range b.byFlow {
		a.byFlow[f] += n
	}
	a.total += b.total
	a.unknown += b.unknown
}

// Clone returns an independent copy of the accumulator. The live
// collector publishes a clone with every epoch snapshot so queries read
// a frozen flow map while ingestion keeps merging deltas into the
// original.
func (a *Analysis) Clone() *Analysis {
	c := &Analysis{
		byFlow:  make(map[Flow]int64, len(a.byFlow)),
		total:   a.total,
		unknown: a.unknown,
	}
	for f, n := range a.byFlow {
		c.byFlow[f] = n
	}
	return c
}

// Equal reports whether two accumulators hold identical counts (zero
// entries excluded). It backs the property tests pinning incremental
// delta merging to the full rescan.
func (a *Analysis) Equal(b *Analysis) bool {
	if a.total != b.total || a.unknown != b.unknown {
		return false
	}
	count := func(m map[Flow]int64) int {
		n := 0
		for _, v := range m {
			if v != 0 {
				n++
			}
		}
		return n
	}
	if count(a.byFlow) != count(b.byFlow) {
		return false
	}
	for f, n := range a.byFlow {
		if n != 0 && b.byFlow[f] != n {
			return false
		}
	}
	return true
}

// analyzeRowsPerShard is the minimum row count that justifies a worker:
// below this, goroutine + merge overhead beats the scan.
const analyzeRowsPerShard = 1 << 16

// Analyze joins the classified dataset's tracking rows with a geolocation
// service.
//
// The scan is chunk-wise over the dataset's columnar store: workers take
// contiguous chunk ranges, each with a private projection buffer and a
// private Analysis, merged at the end. The service must be safe for
// concurrent Locate calls (all geo implementations are). The result is
// identical to the sequential scan, for any worker count and any store
// backend.
func Analyze(ds *classify.Dataset, svc geo.Service) *Analysis {
	return analyze(ds, svc, -1)
}

// Predicate narrows Analyze to a subset of rows in a form the scan
// planner can understand. EqCountry, when non-empty, declares the
// predicate to be "user country equals EqCountry": chunk zone maps
// prune whole chunks whose country range excludes the value and the
// Country column's RLE runs skip non-matching spans without visiting a
// row.
type Predicate struct {
	EqCountry geodata.Country
}

// CountryEquals is the Predicate selecting one origin country.
func CountryEquals(c geodata.Country) Predicate {
	return Predicate{EqCountry: c}
}

// AnalyzeWhere is Analyze restricted to the rows p selects; the zero
// Predicate selects every row.
func AnalyzeWhere(ds *classify.Dataset, svc geo.Service, p Predicate) *Analysis {
	if p.EqCountry == "" {
		return analyze(ds, svc, -1)
	}
	for i, c := range ds.Countries {
		if c == p.EqCountry {
			return analyze(ds, svc, i)
		}
	}
	// The dataset never saw a user from that country.
	return NewAnalysis()
}

// analyze is the shared scan driver. eqID >= 0 restricts the scan to
// rows whose Country column holds that Countries index.
func analyze(ds *classify.Dataset, svc geo.Service, eqID int) *Analysis {
	st := ds.Store
	if st == nil {
		return NewAnalysis()
	}
	chunks := st.NumChunks()
	workers := runtime.GOMAXPROCS(0)
	if max := 1 + st.Len()/analyzeRowsPerShard; workers > max {
		workers = max
	}
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		return analyzeChunks(ds, svc, eqID, 0, chunks)
	}
	parts := make([]*Analysis, workers)
	var wg sync.WaitGroup
	per := (chunks + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > chunks {
			hi = chunks
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = analyzeChunks(ds, svc, eqID, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	a := parts[0]
	for _, p := range parts[1:] {
		a.Merge(p)
	}
	return a
}

// analyzeChunks is the decode-free projection kernel over chunks
// [lo, hi): it reads only the Country and IP columns in their encoded
// forms. Chunks with no tracking rows load nothing (the resident class
// column decides — the zone map's class bitmap can go stale after the
// semi-stage fixpoint). Country arrives as RLE runs, so the origin
// country resolves once per run rather than once per row; IP usually
// arrives as a dictionary, so Locate runs once per distinct address and
// per-run counts fold into one Add per (origin, destination) pair.
// Counter addition commutes, so folding rows by run and by dictionary
// id changes the order of Adds but not any total.
//
// eqID >= 0 restricts the scan to rows whose Country column holds that
// id: the chunk's zone map (min/max over the immutable Country column,
// authoritative) drops whole chunks before any block fetch, and
// non-matching RLE runs skip without touching the IP column.
func analyzeChunks(ds *classify.Dataset, svc geo.Service, eqID int, lo, hi int) *Analysis {
	a := NewAnalysis()
	pc := classify.GetProj()
	defer classify.PutProj(pc)
	cols := classify.Cols(classify.ColIP, classify.ColCountry)
	var (
		locs    []geodata.Country // memoized Locate result per dict id
		locSt   []uint8           // 0 unresolved, 1 located, 2 unknown
		cnt     []int64           // per-run count per dict id
		touched []uint32          // dict ids with cnt != 0 this run
	)
	for ci := lo; ci < hi; ci++ {
		classify.ProjChunkAt(ds.Store, ci, cols, pc)
		if eqID >= 0 {
			if z := pc.Zone; z != nil &&
				(uint64(eqID) < z.Min[classify.ColCountry] || uint64(eqID) > z.Max[classify.ColCountry]) {
				continue
			}
		}
		cls := pc.Class
		if !classify.AnyTracking(cls) {
			continue
		}
		runs := pc.Runs(classify.ColCountry)
		dict, idx, haveDict := pc.DictView(classify.ColIP)
		if haveDict {
			if cap(locs) < len(dict) {
				locs = make([]geodata.Country, len(dict))
				locSt = make([]uint8, len(dict))
				cnt = make([]int64, len(dict))
			}
			locs = locs[:len(dict)]
			locSt = locSt[:len(dict)]
			cnt = cnt[:len(dict)]
			for i := range locSt {
				locSt[i] = 0
			}
		}
		var ips []uint64
		if !haveDict {
			ips = pc.Wide(classify.ColIP)
		}
		row := 0
		for _, r := range runs {
			end := row + r.Len
			if eqID >= 0 && r.Value != uint64(eqID) {
				row = end
				continue
			}
			src := ds.Countries[r.Value]
			if haveDict {
				touched = touched[:0]
				for i := row; i < end; i++ {
					if !cls[i].IsTracking() {
						continue
					}
					k := idx[i]
					if cnt[k] == 0 {
						touched = append(touched, k)
					}
					cnt[k]++
				}
				for _, k := range touched {
					if locSt[k] == 0 {
						if loc, ok := svc.Locate(netsim.IP(dict[k])); ok {
							locs[k] = loc.Country
							locSt[k] = 1
						} else {
							locSt[k] = 2
						}
					}
					if locSt[k] == 1 {
						a.Add(src, locs[k], cnt[k])
					} else {
						a.AddUnknown(cnt[k])
					}
					cnt[k] = 0
				}
			} else {
				for i := row; i < end; i++ {
					if !cls[i].IsTracking() {
						continue
					}
					loc, ok := svc.Locate(netsim.IP(ips[i]))
					if !ok {
						a.AddUnknown(1)
						continue
					}
					a.Add(src, loc.Country, 1)
				}
			}
			row = end
		}
	}
	return a
}

// Edge is one aggregated origin→destination cell.
type Edge struct {
	From, To string
	Count    int64
	Percent  float64 // of the origin's total
}

// continentKey maps both European regions onto themselves but keeps the
// paper's distinction: EU28 and Rest of Europe are separate regions in
// every figure.
func continentName(c geodata.Country) string {
	return geodata.ContinentOf(c).String()
}

// ContinentEdges aggregates flows between regions (Fig 6). Percentages
// are per origin region; edges are ordered by origin then by descending
// count.
func (a *Analysis) ContinentEdges() []Edge {
	counts := make(map[[2]string]int64)
	origins := make(map[string]int64)
	for f, n := range a.byFlow {
		from, to := continentName(f.Src), continentName(f.Dst)
		counts[[2]string{from, to}] += n
		origins[from] += n
	}
	return edgesFrom(counts, origins)
}

// DestContinents returns the destination-region split for flows whose
// origin satisfies originFilter (Fig 7: EU28 users only).
func (a *Analysis) DestContinents(originFilter func(geodata.Country) bool) []Edge {
	counts := make(map[[2]string]int64)
	origins := make(map[string]int64)
	for f, n := range a.byFlow {
		if originFilter != nil && !originFilter(f.Src) {
			continue
		}
		to := continentName(f.Dst)
		counts[[2]string{"origin", to}] += n
		origins["origin"] += n
	}
	return edgesFrom(counts, origins)
}

// CountryEdges aggregates flows between countries (Fig 8), restricted to
// origins satisfying originFilter (nil = all).
func (a *Analysis) CountryEdges(originFilter func(geodata.Country) bool) []Edge {
	counts := make(map[[2]string]int64)
	origins := make(map[string]int64)
	for f, n := range a.byFlow {
		if originFilter != nil && !originFilter(f.Src) {
			continue
		}
		counts[[2]string{string(f.Src), string(f.Dst)}] += n
		origins[string(f.Src)] += n
	}
	return edgesFrom(counts, origins)
}

func edgesFrom(counts map[[2]string]int64, origins map[string]int64) []Edge {
	out := make([]Edge, 0, len(counts))
	for k, n := range counts {
		pct := 0.0
		if origins[k[0]] > 0 {
			pct = 100 * float64(n) / float64(origins[k[0]])
		}
		out = append(out, Edge{From: k[0], To: k[1], Count: n, Percent: pct})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].To < out[j].To
	})
	return out
}

// Confinement summarizes locality for one origin country.
type Confinement struct {
	Country geodata.Country
	Flows   int64
	// InCountry is the share of flows terminating in the same country.
	InCountry float64
	// InEU28 is the share terminating inside EU28.
	InEU28 float64
	// InEurope is the share terminating in EU28 + Rest of Europe (the
	// paper's "continent" level for European users).
	InEurope float64
}

// ConfinementByCountry computes per-origin-country confinement, sorted by
// descending flow count.
func (a *Analysis) ConfinementByCountry() []Confinement {
	type acc struct {
		total, inCountry, inEU, inEurope int64
	}
	accs := make(map[geodata.Country]*acc)
	for f, n := range a.byFlow {
		x := accs[f.Src]
		if x == nil {
			x = &acc{}
			accs[f.Src] = x
		}
		x.total += n
		if f.Dst == f.Src {
			x.inCountry += n
		}
		dc := geodata.ContinentOf(f.Dst)
		if dc == geodata.EU28 {
			x.inEU += n
		}
		if dc == geodata.EU28 || dc == geodata.RestOfEurope {
			x.inEurope += n
		}
	}
	out := make([]Confinement, 0, len(accs))
	for c, x := range accs {
		out = append(out, Confinement{
			Country:   c,
			Flows:     x.total,
			InCountry: 100 * float64(x.inCountry) / float64(x.total),
			InEU28:    100 * float64(x.inEU) / float64(x.total),
			InEurope:  100 * float64(x.inEurope) / float64(x.total),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flows != out[j].Flows {
			return out[i].Flows > out[j].Flows
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// RegionConfinement reports aggregate locality for all flows whose origin
// satisfies filter: the share terminating in the origin country, inside
// EU28, and inside Europe.
func (a *Analysis) RegionConfinement(filter func(geodata.Country) bool) (inCountry, inEU28, inEurope float64, flows int64) {
	var total, inC, inEU, inEur int64
	for f, n := range a.byFlow {
		if filter != nil && !filter(f.Src) {
			continue
		}
		total += n
		if f.Dst == f.Src {
			inC += n
		}
		dc := geodata.ContinentOf(f.Dst)
		if dc == geodata.EU28 {
			inEU += n
		}
		if dc == geodata.EU28 || dc == geodata.RestOfEurope {
			inEur += n
		}
	}
	if total == 0 {
		return 0, 0, 0, 0
	}
	return 100 * float64(inC) / float64(total),
		100 * float64(inEU) / float64(total),
		100 * float64(inEur) / float64(total),
		total
}

// EU28Origin is the origin filter for the paper's headline analyses.
func EU28Origin(c geodata.Country) bool { return geodata.IsEU28(c) }

// TopDestinations returns the n busiest destination countries with their
// share of all flows (Fig 12's per-ISP views).
func (a *Analysis) TopDestinations(n int) []Edge {
	counts := make(map[string]int64)
	var total int64
	for f, cnt := range a.byFlow {
		counts[string(f.Dst)] += cnt
		total += cnt
	}
	out := make([]Edge, 0, len(counts))
	for dst, cnt := range counts {
		out = append(out, Edge{From: "all", To: dst, Count: cnt, Percent: 100 * float64(cnt) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].To < out[j].To
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
