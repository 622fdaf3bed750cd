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

// Method bits of the Table 2 masks: which classification methods
// caught a tracking row of a given FQDN, eTLD+1 or URL.
const (
	methodABP uint8 = 1 << iota
	methodSemi
)

// ComputeTable2 aggregates the classified dataset. The scan keeps one
// method mask per FQDN interner id and one per URL hash, so a tracking
// row costs an index, one map update and a counter; eTLD+1s derive
// once per distinct tracking FQDN after the scan, a TLD's mask being
// the OR of its FQDNs' masks.
func ComputeTable2(ds *Dataset) Table2 {
	if ds.Store == nil {
		return Table2{}
	}
	// Size the URL map from the resident class columns up front: a
	// map grown one insert at a time spends a third of the kernel in
	// rehashing.
	tracking := 0
	for ci := 0; ci < ds.Store.NumChunks(); ci++ {
		for _, c := range ds.Store.Classes(ci) {
			if c.IsTracking() {
				tracking++
			}
		}
	}
	fqdnMask := make([]uint8, ds.FQDNs.Len())
	urlMask := make(map[uint64]uint8, tracking)
	var abpRows, semiRows int64
	// Only URLHash and FQDN leave the block; chunks with no tracking
	// rows load nothing at all.
	ds.ScanCols(func(_ int, pc *ProjChunk) {
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
			bit := methodSemi
			if c == ClassABP {
				bit = methodABP
				abpRows++
			} else {
				semiRows++
			}
			f := fqdns[i]
			if f >= uint64(len(fqdnMask)) {
				fqdnMask = append(fqdnMask, make([]uint8, int(f)+1-len(fqdnMask))...)
			}
			fqdnMask[f] |= bit
			urlMask[urls[i]] |= bit
		}
	})
	// Tally distinct keys by mask (index 0 stays empty); a method's
	// count is the sum over the masks carrying its bit.
	var fq, tl, ur [4]int
	tldMask := make(map[string]uint8)
	for f, m := range fqdnMask {
		if m != 0 {
			fq[m]++
			tldMask[webgraph.ETLDPlusOne(ds.FQDNs.Str(uint32(f)))] |= m
		}
	}
	for _, m := range tldMask {
		tl[m]++
	}
	for _, m := range urlMask {
		ur[m]++
	}
	count := func(n *[4]int, bits uint8) (c int) {
		for m := uint8(1); m < 4; m++ {
			if m&bits != 0 {
				c += n[m]
			}
		}
		return c
	}
	stats := func(bits uint8, rows int64) MethodStats {
		return MethodStats{
			FQDNs:          count(&fq, bits),
			TLDs:           count(&tl, bits),
			UniqueRequests: int64(count(&ur, bits)),
			TotalRequests:  rows,
		}
	}
	return Table2{
		ABP:   stats(methodABP, abpRows),
		Semi:  stats(methodSemi, semiRows),
		Total: stats(methodABP|methodSemi, abpRows+semiRows),
	}
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
	ds.ScanCols(func(_ int, pc *ProjChunk) {
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
	ds.ScanCols(func(_ int, pc *ProjChunk) {
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
	ds.ScanCols(func(_ int, pc *ProjChunk) {
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

// ComputeStats summarizes the dataset. Distinct FQDNs are marked in a
// slice indexed by interner id, distinct users in a set.
func ComputeStats(ds *Dataset) DatasetStats {
	users := make(map[int32]struct{})
	seen, fqdns := make([]bool, ds.FQDNs.Len()), 0
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
	ds.ScanCols(func(_ int, pc *ProjChunk) {
		distinct(pc, ColUser, func(v uint64) { users[int32(v)] = struct{}{} })
		distinct(pc, ColFQDN, func(v uint64) {
			if v >= uint64(len(seen)) {
				seen = append(seen, make([]bool, int(v)+1-len(seen))...)
			}
			if !seen[v] {
				seen[v] = true
				fqdns++
			}
		})
	})
	return DatasetStats{
		Users:            len(users),
		FirstPartySites:  len(ds.Publishers),
		FirstPartyVisits: ds.Visits,
		ThirdPartyFQDNs:  fqdns,
		ThirdPartyReqs:   int64(ds.Len()),
	}
}
