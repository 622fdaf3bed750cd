package scenario

import (
	"context"
	"sort"
	"sync"

	"crossborder/internal/classify"
	"crossborder/internal/core"
	"crossborder/internal/geodata"
)

// Summary condenses one built study into the cross-study comparison
// vector the sweep driver diffs across packs: the paper's Table 1/2
// aggregates, classifier accuracy, truth-joined flow counts and
// confinement, and the tracker-inventory sizes. Everything here is a
// pure function of the Scenario, so a sweep cell's Summary is as
// deterministic as its build.
type Summary struct {
	Pack string `json:"pack"`
	Seed int64  `json:"seed"`

	Stats    classify.DatasetStats `json:"table1"`
	Table2   classify.Table2       `json:"table2"`
	Accuracy classify.Accuracy     `json:"accuracy"`

	// Flows/UnknownFlows come from the ground-truth geolocation join
	// over tracking rows (core.Analyze).
	Flows        int64 `json:"flows"`
	UnknownFlows int64 `json:"unknown_flows"`

	// Confinement of EU28-origin tracking flows (truth join).
	InCountry float64 `json:"in_country"`
	InEU28    float64 `json:"in_eu28"`
	InEurope  float64 `json:"in_europe"`

	TrackerIPs    int `json:"tracker_ips"`
	ObservedIPs   int `json:"observed_ips"`
	TrackingFQDNs int `json:"tracking_fqdns"`

	// CountryFlows counts tracking flows per origin country, located
	// or not, so it needs no geolocation: one scan counts tracking rows
	// per Country run. Countries without flows are left out.
	CountryFlows map[geodata.Country]int64 `json:"country_flows"`
}

// Summarize computes the comparison vector for a built scenario.
func Summarize(s *Scenario) Summary {
	pack := ""
	if s.Params.Mutators != nil {
		pack = s.Params.Mutators.Name
	}
	sum := Summary{
		Pack:          pack,
		Seed:          s.Params.Seed,
		Stats:         classify.ComputeStats(s.Dataset),
		Table2:        classify.ComputeTable2(s.Dataset),
		Accuracy:      classify.Score(s.Dataset),
		TrackerIPs:    s.Inventory.NumIPs(),
		ObservedIPs:   s.Inventory.NumObserved(),
		TrackingFQDNs: s.Inventory.NumTrackingFQDNs(),
		CountryFlows:  countryFlows(s.Dataset),
	}
	a := core.Analyze(s.Dataset, s.Truth)
	sum.Flows = a.Total()
	sum.UnknownFlows = a.Unknown()
	sum.InCountry, sum.InEU28, sum.InEurope, _ = a.RegionConfinement(core.EU28Origin)
	return sum
}

// countryFlows counts ds's tracking rows per origin country.
func countryFlows(ds *classify.Dataset) map[geodata.Country]int64 {
	counts := make([]int64, len(ds.Countries))
	ds.ScanCols(func(_ int, pc *classify.ProjChunk) {
		if !classify.AnyTracking(pc.Class) {
			return
		}
		row := 0
		for _, r := range pc.Runs(classify.ColCountry) {
			for _, c := range pc.Class[row : row+r.Len] {
				if c.IsTracking() {
					counts[r.Value]++
				}
			}
			row += r.Len
		}
	})
	out := make(map[geodata.Country]int64)
	for id, n := range counts {
		if n > 0 {
			out[ds.Countries[id]] = n
		}
	}
	return out
}

// Countries returns the origin countries with at least one flow, in
// lexical order, so renderers iterate the map deterministically.
func (s Summary) Countries() []geodata.Country {
	out := make([]geodata.Country, 0, len(s.CountryFlows))
	for c := range s.CountryFlows {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Cell is one point of a seed × pack sweep grid: a label (normally the
// pack name) and the full build parameters.
type Cell struct {
	Seed   int64
	Label  string
	Params Params
}

// CellResult pairs a cell with its computed summary.
type CellResult struct {
	Cell    Cell
	Summary Summary
}

// Sweep builds every cell and summarizes it, running up to workers
// cells concurrently. Results come back in cell order regardless of
// worker count or completion order, and each cell's build is itself
// worker-count-invariant, so the whole grid is deterministic at any
// concurrency. The first build error cancels the remaining cells.
func Sweep(ctx context.Context, cells []Cell, workers int) ([]CellResult, error) {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range cells {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return nil, ctx.Err()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			cell := cells[i]
			s, err := BuildContext(ctx, cell.Params)
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			results[i] = CellResult{Cell: cell, Summary: Summarize(s)}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
