package classify

import (
	"sort"

	"crossborder/internal/webgraph"
)

// MethodStats summarizes one classification method's catch (a row of
// Table 2): distinct FQDNs, distinct eTLD+1s, unique request URLs, and
// total requests.
type MethodStats struct {
	FQDNs          int
	TLDs           int
	UniqueRequests int64
	TotalRequests  int64
}

// Table2 reproduces the paper's Table 2: the AdBlockPlus-list catch, the
// semi-automatic catch, and their union.
type Table2 struct {
	ABP   MethodStats
	Semi  MethodStats
	Total MethodStats
}

// ComputeTable2 aggregates the classified dataset.
func ComputeTable2(ds *Dataset) Table2 {
	type agg struct {
		fqdns map[uint32]struct{}
		tlds  map[string]struct{}
		urls  map[uint64]struct{}
		total int64
	}
	newAgg := func() *agg {
		return &agg{
			fqdns: make(map[uint32]struct{}),
			tlds:  make(map[string]struct{}),
			urls:  make(map[uint64]struct{}),
		}
	}
	abp, semi, tot := newAgg(), newAgg(), newAgg()
	add := func(a *agg, fqdn uint32, urlHash uint64, tld string) {
		a.fqdns[fqdn] = struct{}{}
		a.tlds[tld] = struct{}{}
		a.urls[urlHash] = struct{}{}
		a.total++
	}
	// tldOf caches the per-FQDN eTLD+1 so the scan does one suffix parse
	// per hostname, not per row.
	tldOf := make(map[uint32]string)
	tld := func(f uint32) string {
		t, ok := tldOf[f]
		if !ok {
			t = webgraph.ETLDPlusOne(ds.FQDNs.Str(f))
			tldOf[f] = t
		}
		return t
	}
	addRow := func(cls Class, fqdn uint32, urlHash uint64) {
		t := tld(fqdn)
		add(tot, fqdn, urlHash, t)
		if cls == ClassABP {
			add(abp, fqdn, urlHash, t)
		} else {
			add(semi, fqdn, urlHash, t)
		}
	}
	// Only URLHash and FQDN leave the block; chunks with no tracking
	// rows load nothing at all.
	ds.ScanCols(Cols(ColURLHash, ColFQDN), func(_ int, pc *ProjChunk) {
		cls := pc.Class
		if !AnyTracking(cls) {
			return
		}
		urls := pc.Wide(ColURLHash)
		fqdns := pc.Wide(ColFQDN)
		for i, c := range cls {
			if !c.IsTracking() {
				continue
			}
			addRow(c, uint32(fqdns[i]), urls[i])
		}
	})
	toStats := func(a *agg) MethodStats {
		return MethodStats{
			FQDNs:          len(a.fqdns),
			TLDs:           len(a.tlds),
			UniqueRequests: int64(len(a.urls)),
			TotalRequests:  a.total,
		}
	}
	return Table2{ABP: toStats(abp), Semi: toStats(semi), Total: toStats(tot)}
}

// SiteCounts is the per-website request tally behind Fig 2.
type SiteCounts struct {
	Domain   string
	Clean    int64
	Tracking int64
}

// All returns the total third-party requests of the site.
func (s SiteCounts) All() int64 { return s.Clean + s.Tracking }

// PerSiteCounts aggregates requests per first-party website.
func PerSiteCounts(ds *Dataset) []SiteCounts {
	clean := make([]int64, len(ds.Publishers))
	tracking := make([]int64, len(ds.Publishers))
	// Rows land in publisher order, so the Publisher column is run
	// heavy: tally tracking rows per run and derive the clean count
	// arithmetically from the run length.
	ds.ScanCols(Cols(ColPublisher), func(_ int, pc *ProjChunk) {
		cls := pc.Class
		row := 0
		for _, r := range pc.Runs(ColPublisher) {
			end := row + r.Len
			var t int64
			for i := row; i < end; i++ {
				if cls[i].IsTracking() {
					t++
				}
			}
			tracking[r.Value] += t
			clean[r.Value] += int64(r.Len) - t
			row = end
		}
	})
	out := make([]SiteCounts, 0, len(ds.Publishers))
	for i, p := range ds.Publishers {
		if clean[i]+tracking[i] == 0 {
			continue
		}
		out = append(out, SiteCounts{Domain: p.Domain, Clean: clean[i], Tracking: tracking[i]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// TLDSplit is one bar of Fig 3: a tracking eTLD+1 with its request counts
// split by detection method.
type TLDSplit struct {
	TLD  string
	ABP  int64
	Semi int64
}

// Total returns the combined request count.
func (t TLDSplit) Total() int64 { return t.ABP + t.Semi }

// TopTrackingTLDs returns the n busiest tracking eTLD+1s with their
// ABP-vs-semi split (Fig 3). Ties break lexicographically.
func TopTrackingTLDs(ds *Dataset, n int) []TLDSplit {
	abp := make(map[string]int64)
	semi := make(map[string]int64)
	// tldOf caches the per-FQDN eTLD+1 so the scan does one suffix parse
	// per hostname, not per row.
	tldOf := make(map[uint32]string)
	addRow := func(cls Class, fqdn uint32) {
		tld, ok := tldOf[fqdn]
		if !ok {
			tld = webgraph.ETLDPlusOne(ds.FQDNs.Str(fqdn))
			tldOf[fqdn] = tld
		}
		if cls == ClassABP {
			abp[tld]++
		} else {
			semi[tld]++
		}
	}
	ds.ScanCols(Cols(ColFQDN), func(_ int, pc *ProjChunk) {
		cls := pc.Class
		if !AnyTracking(cls) {
			return
		}
		fqdns := pc.Wide(ColFQDN)
		for i, c := range cls {
			if c.IsTracking() {
				addRow(c, uint32(fqdns[i]))
			}
		}
	})
	seen := make(map[string]struct{}, len(abp)+len(semi))
	var out []TLDSplit
	for tld := range abp {
		seen[tld] = struct{}{}
	}
	for tld := range semi {
		seen[tld] = struct{}{}
	}
	for tld := range seen {
		out = append(out, TLDSplit{TLD: tld, ABP: abp[tld], Semi: semi[tld]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		return out[i].TLD < out[j].TLD
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Accuracy scores the classifier against the generator's ground truth.
type Accuracy struct {
	TruePositives  int64
	FalsePositives int64
	TrueNegatives  int64
	FalseNegatives int64
}

// Precision returns TP/(TP+FP), or 0 when undefined.
func (a Accuracy) Precision() float64 {
	if a.TruePositives+a.FalsePositives == 0 {
		return 0
	}
	return float64(a.TruePositives) / float64(a.TruePositives+a.FalsePositives)
}

// Recall returns TP/(TP+FN), or 0 when undefined.
func (a Accuracy) Recall() float64 {
	if a.TruePositives+a.FalseNegatives == 0 {
		return 0
	}
	return float64(a.TruePositives) / float64(a.TruePositives+a.FalseNegatives)
}

// Score compares the final classification with ground truth.
func Score(ds *Dataset) Accuracy {
	var a Accuracy
	score := func(cls Class, flags uint8) {
		truth := flags&FlagTruthing != 0
		switch {
		case cls.IsTracking() && truth:
			a.TruePositives++
		case cls.IsTracking() && !truth:
			a.FalsePositives++
		case !cls.IsTracking() && truth:
			a.FalseNegatives++
		default:
			a.TrueNegatives++
		}
	}
	ds.ScanCols(Cols(ColFlags), func(_ int, pc *ProjChunk) {
		flags := pc.Wide(ColFlags)
		for i, cls := range pc.Class {
			score(cls, uint8(flags[i]))
		}
	})
	return a
}

// DatasetStats reproduces Table 1's dataset summary.
type DatasetStats struct {
	Users            int
	FirstPartySites  int
	FirstPartyVisits int
	ThirdPartyFQDNs  int
	ThirdPartyReqs   int64
}

// ComputeStats summarizes the dataset.
func ComputeStats(ds *Dataset) DatasetStats {
	users := make(map[int32]struct{})
	fqdns := make(map[uint32]struct{})
	// Distinct counting never needs row order: a chunk's dictionary IS
	// its distinct value set, and an RLE column collapses to one set
	// insert per run. Either way the per-row loop disappears.
	distinct := func(pc *ProjChunk, c ColID, f func(uint64)) {
		if dict, _, ok := pc.DictView(c); ok {
			for _, v := range dict {
				f(v)
			}
			return
		}
		for _, r := range pc.Runs(c) {
			f(r.Value)
		}
	}
	ds.ScanCols(Cols(ColUser, ColFQDN), func(_ int, pc *ProjChunk) {
		distinct(pc, ColUser, func(v uint64) { users[int32(v)] = struct{}{} })
		distinct(pc, ColFQDN, func(v uint64) { fqdns[uint32(v)] = struct{}{} })
	})
	return DatasetStats{
		Users:            len(users),
		FirstPartySites:  len(ds.Publishers),
		FirstPartyVisits: ds.Visits,
		ThirdPartyFQDNs:  len(fqdns),
		ThirdPartyReqs:   int64(ds.Len()),
	}
}
