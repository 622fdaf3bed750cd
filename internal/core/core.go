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
// sequential pass — which is what keeps the parallel Join
// deterministic.
func (a *Analysis) Merge(b *Analysis) {
	for f, n := range b.byFlow {
		a.byFlow[f] += n
	}
	a.total += b.total
	a.unknown += b.unknown
}

// Equal reports whether two accumulators hold identical counts (zero
// entries excluded). It backs the property tests pinning every join
// and every live route to a full rescan.
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
// service: the Join for one service.
func Analyze(ds *classify.Dataset, svc geo.Service) *Analysis {
	return Join(ds, []geo.Service{svc})[0]
}

// Join joins every tracking row with several geolocation services in
// one projected scan and returns one Analysis per service, in svcs
// order.
//
// Workers take contiguous ranges of chunks, each with a private
// projection buffer, a private memo and private analyses merged at the
// end. The services must be safe for concurrent Locate calls (all geo
// implementations are). The result is identical to a row-by-row join
// for any worker count and any store backend.
func Join(ds *classify.Dataset, svcs []geo.Service) []*Analysis {
	st := ds.Store
	if st == nil {
		return newAnalyses(len(svcs))
	}
	n := st.NumChunks()
	workers := max(min(runtime.GOMAXPROCS(0), 1+st.Len()/analyzeRowsPerShard, n), 1)
	parts := make([][]*Analysis, workers)
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = joinChunks(ds, svcs, min(w*per, n), min((w+1)*per, n))
		}(w)
	}
	wg.Wait()
	out := parts[0]
	for _, p := range parts[1:] {
		for s, a := range p {
			out[s].Merge(a)
		}
	}
	return out
}

func newAnalyses(n int) []*Analysis {
	out := make([]*Analysis, n)
	for i := range out {
		out[i] = NewAnalysis()
	}
	return out
}

// located is one service's answer for one IP.
type located struct {
	country geodata.Country
	ok      bool
}

// joinWorker is one Join worker's state. The memo maps each IP the
// worker has seen to a slot of located answers, one per service, so the
// worker locates each distinct IP once per service.
type joinWorker struct {
	svcs []geo.Service
	out  []*Analysis
	memo map[netsim.IP]uint32
	locs []located // slot*len(svcs) + service index

	// The current chunk: its classes, and its IP column either as a
	// dictionary plus id stream or as wide values.
	cls      []classify.Class
	haveDict bool
	dict     []uint64
	idx      []uint32
	ips      []uint64

	// Per-run count folds: by dictionary id on dictionary chunks, by
	// memo slot on wide ones. touched lists the keys counted this run.
	dictCnt []int64
	slotCnt []int64
	touched []uint32
}

// joinChunks is the decode-free projection kernel over chunks [lo, hi):
// it reads only the Country and IP columns in their encoded forms.
// Chunks with no tracking rows load nothing (the resident class column
// decides; the zone map's class bitmap can go stale after the
// semi-stage fixpoint). Country arrives as RLE runs, so the origin
// country resolves once per run; each run folds its tracking rows into
// one count per IP and emits one Add per (origin, IP, service).
// Counter addition commutes, so folding rows changes the order of Adds
// but not any total.
func joinChunks(ds *classify.Dataset, svcs []geo.Service, lo, hi int) []*Analysis {
	w := &joinWorker{svcs: svcs, out: newAnalyses(len(svcs)), memo: make(map[netsim.IP]uint32)}
	pc := classify.GetProj()
	defer classify.PutProj(pc)
	for ci := lo; ci < hi; ci++ {
		classify.ProjChunkAt(ds.Store, ci, pc)
		w.cls = pc.Class
		if !classify.AnyTracking(w.cls) {
			continue
		}
		w.dict, w.idx, w.haveDict = pc.DictView(classify.ColIP)
		if w.haveDict {
			if len(w.dictCnt) < len(w.dict) {
				w.dictCnt = make([]int64, len(w.dict))
			}
		} else {
			w.ips = pc.Wide(classify.ColIP)
		}
		row := 0
		for _, r := range pc.Runs(classify.ColCountry) {
			end := row + r.Len
			w.count(row, end)
			w.flush(ds.Countries[r.Value])
			row = end
		}
	}
	return w.out
}

// count folds the tracking rows in [lo, hi) of the current chunk into
// the run's counts.
func (w *joinWorker) count(lo, hi int) {
	cls := w.cls
	if w.haveDict {
		idx, cnt := w.idx, w.dictCnt
		for i := lo; i < hi; i++ {
			if !cls[i].IsTracking() {
				continue
			}
			k := idx[i]
			if cnt[k] == 0 {
				w.touched = append(w.touched, k)
			}
			cnt[k]++
		}
		return
	}
	for i := lo; i < hi; i++ {
		if !cls[i].IsTracking() {
			continue
		}
		k := w.slot(netsim.IP(w.ips[i]))
		if w.slotCnt[k] == 0 {
			w.touched = append(w.touched, k)
		}
		w.slotCnt[k]++
	}
}

// flush emits the run's counts as flows from src and clears them.
func (w *joinWorker) flush(src geodata.Country) {
	for _, k := range w.touched {
		var n int64
		if w.haveDict {
			n, w.dictCnt[k] = w.dictCnt[k], 0
			k = w.slot(netsim.IP(w.dict[k]))
		} else {
			n, w.slotCnt[k] = w.slotCnt[k], 0
		}
		for s, a := range w.out {
			if l := w.locs[int(k)*len(w.svcs)+s]; l.ok {
				a.Add(src, l.country, n)
			} else {
				a.AddUnknown(n)
			}
		}
	}
	w.touched = w.touched[:0]
}

// slot returns ip's memo slot, locating ip under every service on first
// sight.
func (w *joinWorker) slot(ip netsim.IP) uint32 {
	if k, ok := w.memo[ip]; ok {
		return k
	}
	k := uint32(len(w.memo))
	w.memo[ip] = k
	for _, svc := range w.svcs {
		loc, ok := svc.Locate(ip)
		w.locs = append(w.locs, located{loc.Country, ok})
	}
	w.slotCnt = append(w.slotCnt, 0)
	return k
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
