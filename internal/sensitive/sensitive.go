// Package sensitive implements the paper's §6 pipeline for tracing
// tracking flows on GDPR-sensitive data categories: an AdWords-style
// automated topic tagger (which mostly sees the innocuous masking
// categories sensitive sites hide behind), a multi-examiner manual
// inspection simulation with a two-agreement inclusion rule, and the flow
// analyses behind Figs 9–11.
package sensitive

import (
	"math/rand"
	"sort"

	"crossborder/internal/classify"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
	"crossborder/internal/webgraph"
)

// AdWordsTags simulates the automated tagging service: it returns the
// site's public interest categories. Sensitive sites are usually tagged
// only with their masking category (§6.1: a pregnancy site tags as
// "Health", a gambling site as "Games"), but occasionally the tagger
// surfaces the true category.
func AdWordsTags(rng *rand.Rand, p *webgraph.Publisher) []webgraph.Topic {
	tags := make([]webgraph.Topic, 0, len(p.Topics)+1)
	tags = append(tags, p.Topics...)
	if p.Sensitive != "" && rng.Float64() < 0.15 {
		tags = append(tags, p.Sensitive)
	}
	return tags
}

// AutoDetect returns the sensitive category found in a tag list, if any.
func AutoDetect(tags []webgraph.Topic) (webgraph.Topic, bool) {
	for _, t := range tags {
		if webgraph.IsSensitive(t) {
			return t, true
		}
	}
	return "", false
}

// ExaminerConfig tunes the simulated manual inspection.
type ExaminerConfig struct {
	// Examiners is the panel size (default 3; the paper used multiple
	// people with a >=2 agreement rule).
	Examiners int
	// Accuracy is the probability one examiner recognizes a sensitive
	// site's true category (default 0.9).
	Accuracy float64
	// FalsePositiveRate is the probability one examiner wrongly flags a
	// general site as sensitive (default 0.004).
	FalsePositiveRate float64
	// MinAgreement is the inclusion threshold (default 2).
	MinAgreement int
}

func (c ExaminerConfig) withDefaults() ExaminerConfig {
	if c.Examiners == 0 {
		c.Examiners = 3
	}
	if c.Accuracy == 0 {
		c.Accuracy = 0.9
	}
	if c.FalsePositiveRate == 0 {
		c.FalsePositiveRate = 0.004
	}
	if c.MinAgreement == 0 {
		c.MinAgreement = 2
	}
	return c
}

// examine returns one examiner's verdict for a site ("" = not sensitive).
func examine(rng *rand.Rand, p *webgraph.Publisher, cfg ExaminerConfig) webgraph.Topic {
	if p.Sensitive != "" {
		if rng.Float64() < cfg.Accuracy {
			return p.Sensitive
		}
		return ""
	}
	if rng.Float64() < cfg.FalsePositiveRate {
		cats := webgraph.SensitiveCategories()
		return cats[rng.Intn(len(cats))]
	}
	return ""
}

// Identification is the outcome of the §6.1 multi-stage filtering.
type Identification struct {
	// ByPublisher maps identified publishers to their agreed category.
	ByPublisher map[*webgraph.Publisher]webgraph.Topic
	// Inspected counts the domains examined.
	Inspected int
	// AutoDetected counts domains already caught by the automated tags.
	AutoDetected int
}

// Identified returns the number of identified sensitive domains.
func (id *Identification) Identified() int { return len(id.ByPublisher) }

// Identify runs the full §6.1 process over the graph's publishers: the
// automated AdWords pass first, then the examiner panel with the
// MinAgreement rule for everything the automation missed.
func Identify(rng *rand.Rand, g *webgraph.Graph, cfg ExaminerConfig) *Identification {
	cfg = cfg.withDefaults()
	id := &Identification{ByPublisher: make(map[*webgraph.Publisher]webgraph.Topic)}
	for _, p := range g.Publishers {
		id.Inspected++
		if cat, ok := AutoDetect(AdWordsTags(rng, p)); ok {
			id.ByPublisher[p] = cat
			id.AutoDetected++
			continue
		}
		votes := make(map[webgraph.Topic]int)
		for e := 0; e < cfg.Examiners; e++ {
			if v := examine(rng, p, cfg); v != "" {
				votes[v]++
			}
		}
		for cat, n := range votes {
			if n >= cfg.MinAgreement {
				id.ByPublisher[p] = cat
				break
			}
		}
	}
	return id
}

// CategoryShare is one bar of Fig 9.
type CategoryShare struct {
	Category webgraph.Topic
	Flows    int64
	Percent  float64 // of all sensitive tracking flows
}

// Report aggregates the sensitive tracking flows of a classified dataset.
type Report struct {
	// Shares lists per-category flow shares, descending (Fig 9).
	Shares []CategoryShare
	// SensitiveFlows is the total tracking flows on identified sites.
	SensitiveFlows int64
	// AllTrackingFlows is the denominator (Fig 9's 2.89%).
	AllTrackingFlows int64
}

// PctOfAll returns sensitive tracking flows as a share of all tracking
// flows.
func (r *Report) PctOfAll() float64 {
	if r.AllTrackingFlows == 0 {
		return 0
	}
	return 100 * float64(r.SensitiveFlows) / float64(r.AllTrackingFlows)
}

// BuildReport computes Fig 9 over the classified dataset.
func BuildReport(ds *classify.Dataset, id *Identification) *Report {
	rep := &Report{}
	counts := make(map[webgraph.Topic]int64)
	// Rows land in publisher order, so the Publisher column is run
	// heavy: count tracking rows per run and look the publisher up once.
	ds.ScanCols(func(_ int, pc *classify.ProjChunk) {
		cls := pc.Class
		if !classify.AnyTracking(cls) {
			return
		}
		row := 0
		for _, r := range pc.Runs(classify.ColPublisher) {
			var n int64
			for _, c := range cls[row : row+r.Len] {
				if c.IsTracking() {
					n++
				}
			}
			row += r.Len
			if n == 0 {
				continue
			}
			rep.AllTrackingFlows += n
			if cat, ok := id.ByPublisher[ds.Publishers[r.Value]]; ok {
				counts[cat] += n
				rep.SensitiveFlows += n
			}
		}
	})
	for cat, n := range counts {
		pct := 0.0
		if rep.SensitiveFlows > 0 {
			pct = 100 * float64(n) / float64(rep.SensitiveFlows)
		}
		rep.Shares = append(rep.Shares, CategoryShare{Category: cat, Flows: n, Percent: pct})
	}
	sort.Slice(rep.Shares, func(i, j int) bool {
		if rep.Shares[i].Flows != rep.Shares[j].Flows {
			return rep.Shares[i].Flows > rep.Shares[j].Flows
		}
		return rep.Shares[i].Category < rep.Shares[j].Category
	})
	return rep
}

// DestEdge is one (category, destination region) cell of Fig 10.
type DestEdge struct {
	Category webgraph.Topic
	Region   string
	Flows    int64
	Percent  float64 // of the category's flows
}

// DestByCategory computes, for EU28 users, where each sensitive
// category's tracking flows terminate (Fig 10).
func DestByCategory(ds *classify.Dataset, id *Identification, svc geo.Service) []DestEdge {
	type key struct {
		cat    webgraph.Topic
		region string
	}
	counts := make(map[key]int64)
	totals := make(map[webgraph.Topic]int64)
	eachEUSensitiveFlow(ds, id, svc, func(cat webgraph.Topic, _ geodata.Country, loc geo.Location) {
		counts[key{cat, loc.Continent.String()}]++
		totals[cat]++
	})
	out := make([]DestEdge, 0, len(counts))
	for k, n := range counts {
		out = append(out, DestEdge{
			Category: k.cat,
			Region:   k.region,
			Flows:    n,
			Percent:  100 * float64(n) / float64(totals[k.cat]),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Category != out[j].Category {
			return out[i].Category < out[j].Category
		}
		if out[i].Flows != out[j].Flows {
			return out[i].Flows > out[j].Flows
		}
		return out[i].Region < out[j].Region
	})
	return out
}

// CountryLeak is one bar pair of Fig 11: a country's sensitive tracking
// flows and how many left the country.
type CountryLeak struct {
	Country geodata.Country
	Total   int64
	Outside int64
}

// OutsidePct returns the share of sensitive flows leaving the country.
func (c CountryLeak) OutsidePct() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Outside) / float64(c.Total)
}

// CountryLeakage computes Fig 11 for EU28 user countries.
func CountryLeakage(ds *classify.Dataset, id *Identification, svc geo.Service) []CountryLeak {
	type acc struct{ total, outside int64 }
	accs := make(map[geodata.Country]*acc)
	eachEUSensitiveFlow(ds, id, svc, func(_ webgraph.Topic, src geodata.Country, loc geo.Location) {
		x := accs[src]
		if x == nil {
			x = &acc{}
			accs[src] = x
		}
		x.total++
		if loc.Country != src {
			x.outside++
		}
	})
	out := make([]CountryLeak, 0, len(accs))
	for c, x := range accs {
		out = append(out, CountryLeak{Country: c, Total: x.total, Outside: x.outside})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// eachEUSensitiveFlow calls fn, in row order, for every tracking flow
// of an EU28 user on an identified sensitive site whose destination svc
// locates: the row set behind Figs 10 and 11. The Country and
// Publisher columns are read as runs and intersected, so each user
// country and publisher is looked up once per span, and the IP column
// is loaded only for chunks holding such a span.
func eachEUSensitiveFlow(ds *classify.Dataset, id *Identification, svc geo.Service, fn func(cat webgraph.Topic, src geodata.Country, loc geo.Location)) {
	ds.ScanCols(func(_ int, pc *classify.ProjChunk) {
		cls := pc.Class
		if !classify.AnyTracking(cls) {
			return
		}
		countries, pubs := pc.Runs(classify.ColCountry), pc.Runs(classify.ColPublisher)
		var ips []uint64
		ci, pi, cEnd, pEnd := 0, 0, 0, 0
		for lo, hi := 0, 0; lo < len(cls); lo = hi {
			// Advance whichever run ends here; [lo, hi) then lies
			// inside countries[ci-1] and pubs[pi-1].
			if lo == cEnd {
				cEnd += countries[ci].Len
				ci++
			}
			if lo == pEnd {
				pEnd += pubs[pi].Len
				pi++
			}
			hi = min(cEnd, pEnd)
			src := ds.Countries[countries[ci-1].Value]
			if !geodata.IsEU28(src) || !classify.AnyTracking(cls[lo:hi]) {
				continue
			}
			cat, ok := id.ByPublisher[ds.Publishers[pubs[pi-1].Value]]
			if !ok {
				continue
			}
			if ips == nil {
				ips = pc.Wide(classify.ColIP)
			}
			for i := lo; i < hi; i++ {
				if !cls[i].IsTracking() {
					continue
				}
				if loc, ok := svc.Locate(netsim.IP(ips[i])); ok {
					fn(cat, src, loc)
				}
			}
		}
	})
}
