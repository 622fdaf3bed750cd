package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"crossborder/internal/core"
	"crossborder/internal/geodata"
	"crossborder/internal/netflow"
	"crossborder/internal/scenario"
	"crossborder/internal/tablefmt"
)

// Table7Result reproduces Table 7: the profiles of the four ISPs.
type Table7Result struct {
	ISPs []netflow.ISPProfile
}

// Table7 returns the ISP profiles.
func (su *Suite) Table7() Table7Result {
	return Table7Result{ISPs: netflow.DefaultISPs()}
}

// Render formats the profile table.
func (r Table7Result) Render() string {
	t := tablefmt.NewTable("Table 7: profile of the four European ISPs",
		"Name", "Country", "Demographics")
	for _, p := range r.ISPs {
		kind := "broadband households"
		if p.Mobile {
			kind = "mobile users"
		}
		t.AddRow(p.Name, geodata.Name(p.Country),
			fmt.Sprintf("%.0f+ million %s", p.SubscribersM, kind))
	}
	return t.String()
}

// SnapshotDates are the four measurement days of Table 8. (The paper's
// table header says Nov 8; its text says Nov 11 — we use the table.)
func SnapshotDates() []time.Time {
	return []time.Time{
		time.Date(2017, 11, 8, 12, 0, 0, 0, time.UTC),
		time.Date(2018, 4, 4, 12, 0, 0, 0, time.UTC),
		time.Date(2018, 5, 16, 12, 0, 0, 0, time.UTC),
		time.Date(2018, 6, 20, 12, 0, 0, 0, time.UTC),
	}
}

// ISPDayReport is one ISP-day cell block of Table 8.
type ISPDayReport struct {
	ISP          string
	Date         time.Time
	SampledFlows int64
	// Region shares in percent.
	EU28, NorthAmerica, RestEurope, Asia, RestWorld float64
	// TopCountries is the Fig 12 view: destination country shares.
	TopCountries []core.Edge
}

// Table8Result reproduces Table 8: sampled tracking flows and region
// confinement across ISPs and dates.
type Table8Result struct {
	Reports []ISPDayReport // ISP-major order, date-minor
}

// Report returns the cell block for one ISP and date.
func (r Table8Result) Report(isp string, date time.Time) (ISPDayReport, bool) {
	for _, rep := range r.Reports {
		if rep.ISP == isp && rep.Date.Equal(date) {
			return rep, true
		}
	}
	return ISPDayReport{}, false
}

// Table8 synthesizes all sixteen ISP-days and geolocates the destination
// counters with IPmap (the §7.2 methodology: match tracker IPs in
// NetFlow, then geolocate).
func (su *Suite) Table8() Table8Result {
	r, err := su.Table8Context(context.Background())
	if err != nil {
		// Unreachable: the background context never cancels and
		// cancellation is the only error source.
		panic("experiments: " + err.Error())
	}
	return r
}

// Table8Context is Table8 with cancellation and progress: even with
// memoized DNS plans the sixteen per-ISP-day NetFlow syntheses are the
// registry's heaviest runner, so the loop polls ctx before each day
// and returns ctx.Err() promptly, and reports each finished ISP-day
// through Suite.Progress under the phase name "table8". This is what
// lets `reproduce -only table8` honour ctrl-C mid-run and `-progress`
// show the heaviest runner advancing. One Synthesizer serves all
// sixteen days, so its plan memo lives exactly as long as this call.
func (su *Suite) Table8Context(ctx context.Context) (Table8Result, error) {
	synth := &netflow.Synthesizer{Resolver: su.S.DNS}
	fqdns := su.S.FQDNWeights()
	isps := netflow.DefaultISPs()
	total := len(isps) * len(SnapshotDates())
	started := time.Now()
	emit := func(done int) {
		if su.Progress != nil {
			su.Progress(scenario.PhaseEvent{
				Phase: "table8", Done: done, Total: total,
				Elapsed: time.Since(started),
			})
		}
	}
	emit(0)
	var out Table8Result
	for _, isp := range isps {
		for di, date := range SnapshotDates() {
			if err := ctx.Err(); err != nil {
				return Table8Result{}, err
			}
			rng := rand.New(rand.NewSource(su.S.Params.Seed*1000 + int64(di) + int64(len(out.Reports))))
			day := synth.Synthesize(rng, isp, date, fqdns)
			out.Reports = append(out.Reports, su.summarizeDay(isp, day))
			emit(len(out.Reports))
		}
	}
	return out, nil
}

// summarizeDay geolocates a day's per-IP counters into region shares.
func (su *Suite) summarizeDay(isp netflow.ISPProfile, day netflow.DaySynthesis) ISPDayReport {
	rep := ISPDayReport{ISP: isp.Name, Date: day.Date, SampledFlows: day.SampledFlows}
	a := core.NewAnalysis()
	for ip, n := range day.PerIP {
		// §7.2: flows count while the tracker-IP binding is valid.
		if !su.S.Inventory.IsTrackingIP(ip, day.Date) {
			continue
		}
		loc, ok := su.S.IPMap.Locate(ip)
		if !ok {
			a.AddUnknown(n)
			continue
		}
		a.Add(isp.Country, loc.Country, n)
	}
	var total int64
	regionCounts := map[geodata.Continent]int64{}
	for _, e := range a.DestContinents(nil) {
		regionCounts[continentByName(e.To)] += e.Count
		total += e.Count
	}
	pct := func(c geodata.Continent) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(regionCounts[c]) / float64(total)
	}
	rep.EU28 = pct(geodata.EU28)
	rep.NorthAmerica = pct(geodata.NorthAmerica)
	rep.RestEurope = pct(geodata.RestOfEurope)
	rep.Asia = pct(geodata.Asia)
	rep.RestWorld = 100 - rep.EU28 - rep.NorthAmerica - rep.RestEurope - rep.Asia
	if rep.RestWorld < 0 { // guard the float residue against -0.00
		rep.RestWorld = 0
	}
	rep.TopCountries = a.TopDestinations(5)
	return rep
}

// Render formats the full Table 8 matrix.
func (r Table8Result) Render() string {
	t := tablefmt.NewTable("Table 8: sampled tracking flow statistics across EU ISPs and over time",
		"ISP", "Date", "Sampled Flows (M)", "EU28 %", "N.America %", "Rest Europe %", "Asia %", "Rest World %")
	for _, rep := range r.Reports {
		t.AddRow(rep.ISP, rep.Date.Format("2006-01-02"),
			float64(rep.SampledFlows)/1e6,
			rep.EU28, rep.NorthAmerica, rep.RestEurope, rep.Asia, rep.RestWorld)
	}
	return t.String()
}

// Fig12Result reproduces Fig 12: top-5 destination countries per ISP on
// the April 4 snapshot.
type Fig12Result struct {
	PerISP map[string][]core.Edge
}

// Fig12 extracts the April 4 top-country views from Table 8's reports.
func (su *Suite) Fig12(t8 Table8Result) Fig12Result {
	apr := SnapshotDates()[1]
	r := Fig12Result{PerISP: make(map[string][]core.Edge)}
	for _, rep := range t8.Reports {
		if rep.Date.Equal(apr) {
			r.PerISP[rep.ISP] = rep.TopCountries
		}
	}
	return r
}

// NationalShare returns the share of the ISP's flows terminating in its
// own country (Fig 12: DE ~69%, PL ~0.25%, HU ~6.85%).
func (r Fig12Result) NationalShare(isp string, home geodata.Country) float64 {
	for _, e := range r.PerISP[isp] {
		if e.To == string(home) {
			return e.Percent
		}
	}
	return 0
}

// Render formats the per-ISP top-5 lists.
func (r Fig12Result) Render() string {
	out := "Fig 12: top 5 destination countries per ISP (April 4)\n"
	for _, isp := range []string{"DE-Broadband", "DE-Mobile", "PL", "HU"} {
		edges := r.PerISP[isp]
		out += isp + ":\n"
		for _, e := range edges {
			out += fmt.Sprintf("  %-16s %6.2f%%\n", geodata.Name(geodata.Country(e.To)), e.Percent)
		}
	}
	return out
}
