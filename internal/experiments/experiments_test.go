package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"crossborder/internal/geodata"
	"crossborder/internal/locality"
	"crossborder/internal/scenario"
	"crossborder/internal/webgraph"
)

// The calibration suite runs at a moderate scale: big enough that the
// paper's shapes are stable, small enough for CI. Bands are intentionally
// generous — they catch calibration regressions, not noise.
var (
	suiteOnce sync.Once
	suiteVal  *Suite
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suiteVal = NewSuite(scenario.Build(scenario.Params{
			Seed: 1, Scale: 0.15, VisitsPerUser: 90,
		}))
	})
	return suiteVal
}

func TestTable1DatasetShape(t *testing.T) {
	r := testSuite(t).Table1()
	if r.Stats.Users == 0 || r.Stats.ThirdPartyReqs == 0 {
		t.Fatal("empty dataset")
	}
	// Third-party requests dominate first-party visits by ~2 orders of
	// magnitude (paper: 7.17M vs 76.5K).
	ratio := float64(r.Stats.ThirdPartyReqs) / float64(r.Stats.FirstPartyVisits)
	if ratio < 40 || ratio > 200 {
		t.Errorf("3rd-party/visit ratio = %.1f, want ~94", ratio)
	}
	if !strings.Contains(r.Render(), "Table 1") {
		t.Error("render missing title")
	}
}

func TestTable2SemiDoublesDetection(t *testing.T) {
	r := testSuite(t).Table2()
	// Paper: semi adds 1.96M over ABP's 2.45M (ratio 0.80).
	ratio := r.SemiToABPRatio()
	if ratio < 0.35 || ratio > 1.6 {
		t.Errorf("semi/ABP ratio = %.2f, want ~0.8 (Table 2)", ratio)
	}
	if r.Acc.Precision() < 0.97 {
		t.Errorf("precision = %.4f", r.Acc.Precision())
	}
	if r.Acc.Recall() < 0.80 {
		t.Errorf("recall = %.4f", r.Acc.Recall())
	}
	if r.T.ABP.UniqueRequests > r.T.ABP.TotalRequests {
		t.Error("unique > total")
	}
}

func TestFig2TrackingDominates(t *testing.T) {
	r := testSuite(t).Fig2()
	if r.TrackingDominatesShare < 0.5 {
		t.Errorf("tracking dominates on only %.0f%% of sites", 100*r.TrackingDominatesShare)
	}
	if r.All.Len() == 0 {
		t.Fatal("no sites")
	}
	// Mean all > mean tracking > mean clean at the aggregate level.
	if r.Tracking.Mean() <= r.Clean.Mean() {
		t.Errorf("tracking mean %.1f <= clean mean %.1f", r.Tracking.Mean(), r.Clean.Mean())
	}
	if !strings.Contains(r.Render(), "Fig 2") {
		t.Error("render missing title")
	}
}

func TestFig3MajorsOnTop(t *testing.T) {
	r := testSuite(t).Fig3()
	if len(r.Top) == 0 {
		t.Fatal("no TLDs")
	}
	majors := map[string]bool{
		"googlesyndication.com": true, "doubleclick.net": true,
		"google-analytics.com": true, "google.com": true,
		"facebook.com": true, "facebook.net": true, "amazon-adsystem.com": true,
	}
	foundMajor := false
	for _, s := range r.Top[:5] {
		if majors[s.TLD] {
			foundMajor = true
		}
	}
	if !foundMajor {
		t.Errorf("no major tracker in top 5: %v", r.Top[:5])
	}
	// Both detection methods contribute somewhere in the top 20.
	var abp, semi int64
	for _, s := range r.Top {
		abp += s.ABP
		semi += s.Semi
	}
	if abp == 0 || semi == 0 {
		t.Error("one detection method contributed nothing")
	}
}

func TestFig4DedicatedIPs(t *testing.T) {
	r := testSuite(t).Fig4()
	// Paper: ~85% of requests served by single-TLD IPs; <2% of IPs serve
	// more than one domain... our shared-infra attachment is a bit more
	// aggressive, so allow up to 12%.
	if s := r.Sharing.SingleTLDRequestShare(); s < 0.70 {
		t.Errorf("single-TLD request share = %.2f, want ~0.85", s)
	}
	if m := r.Sharing.MultiDomainIPShare(); m > 0.12 {
		t.Errorf("multi-domain IP share = %.3f, want small", m)
	}
	// pDNS completion adds a small extra population (paper: +2.78%).
	if r.ExtraIPs == 0 {
		t.Error("no pDNS-only IPs")
	}
	if pct := r.ExtraSharePct(); pct > 25 {
		t.Errorf("extra share = %.1f%%, want small", pct)
	}
}

func TestFig5SharedInfra(t *testing.T) {
	r := testSuite(t).Fig5()
	if len(r.SharedIPs) == 0 {
		t.Fatal("no >=10-domain IPs (paper: 114)")
	}
	// About half in the US + EU28 (paper's Fig 5); generous band.
	if r.USAndEUShare < 0.4 {
		t.Errorf("US+EU share = %.2f, want dominant", r.USAndEUShare)
	}
	for _, info := range r.SharedIPs {
		if len(info.TLDs) < 10 {
			t.Fatalf("shared IP %s has only %d TLDs", info.IP, len(info.TLDs))
		}
	}
}

func TestTable3AgreementPattern(t *testing.T) {
	r := testSuite(t).Table3()
	// The two commercial databases agree with each other...
	if r.IPAPIvMaxMind.Country < 88 {
		t.Errorf("ip-api/maxmind country agreement = %.1f%%, want ~96%%", r.IPAPIvMaxMind.Country)
	}
	// ...but both disagree with IPmap on a large share of IPs.
	if r.MaxMindvIPMap.Country > 72 {
		t.Errorf("maxmind/ipmap country agreement = %.1f%%, want ~53%%", r.MaxMindvIPMap.Country)
	}
	if r.IPAPIvIPMap.Country > 75 {
		t.Errorf("ip-api/ipmap country agreement = %.1f%%, want ~53%%", r.IPAPIvIPMap.Country)
	}
	// Continent agreement exceeds country agreement for the maxmind/ipmap
	// pair (Table 3: 53% vs 65%).
	if r.MaxMindvIPMap.Continent < r.MaxMindvIPMap.Country {
		t.Error("continent agreement below country agreement")
	}
}

func TestTable4MajorsMisgeolocated(t *testing.T) {
	r := testSuite(t).Table4()
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.IPs == 0 {
			t.Fatalf("%s has no IPs", row.Org)
		}
		// Paper: 45-59% wrong country for the majors.
		if p := row.WrongCountryPct(); p < 25 || p > 90 {
			t.Errorf("%s wrong-country = %.1f%%, want roughly half", row.Org, p)
		}
		if row.WrongContinentPct() > row.WrongCountryPct() {
			t.Errorf("%s wrong continent exceeds wrong country", row.Org)
		}
	}
}

func TestFig6ContinentFlows(t *testing.T) {
	r := testSuite(t).Fig6()
	// EU28 self-confinement high; South America leaks into North America.
	if c := r.Confinement[geodata.EU28]; c < 75 || c > 95 {
		t.Errorf("EU28 confinement = %.1f%%, want ~85%%", c)
	}
	if c := r.Confinement[geodata.SouthAmerica]; c > 20 {
		t.Errorf("S.America confinement = %.1f%%, want single digits", c)
	}
	// EU28 and North America host most tracking backends (paper: 51.65%
	// and 40.87%).
	euNA := r.DestShare[geodata.EU28] + r.DestShare[geodata.NorthAmerica]
	if euNA < 70 {
		t.Errorf("EU28+NA destination share = %.1f%%, want ~92%%", euNA)
	}
	// South America -> North America dominates.
	saToNA := 0.0
	for _, e := range r.Edges {
		if e.From == geodata.SouthAmerica.String() && e.To == geodata.NorthAmerica.String() {
			saToNA = e.Percent
		}
	}
	if saToNA < 60 {
		t.Errorf("SA->NA = %.1f%%, want ~90%%", saToNA)
	}
}

func TestFig7GeolocationFlip(t *testing.T) {
	r := testSuite(t).Fig7()
	// (b) IPmap: most EU28 flows stay in EU28 (paper 84.93%).
	if v := r.IPMapEU28(); v < 75 || v > 95 {
		t.Errorf("IPmap EU28 share = %.1f%%, want ~85%%", v)
	}
	if v := r.IPMapNA(); v < 4 || v > 20 {
		t.Errorf("IPmap NA share = %.1f%%, want ~10.75%%", v)
	}
	// (a) MaxMind flips the picture (paper: 33% EU, 66% NA).
	if r.MaxMindEU28() >= r.IPMapEU28()-20 {
		t.Errorf("MaxMind EU28 %.1f%% vs IPmap %.1f%%: flip missing",
			r.MaxMindEU28(), r.IPMapEU28())
	}
	if r.MaxMindNA() <= r.IPMapNA() {
		t.Error("MaxMind must inflate the North America share")
	}
}

func TestFig8NationalConfinement(t *testing.T) {
	r := testSuite(t).Fig8()
	get := func(c geodata.Country) float64 {
		v, ok := r.NationalConfinement(c)
		if !ok {
			t.Fatalf("no confinement for %s", c)
		}
		return v
	}
	gb, es, gr, cy := get("GB"), get("ES"), get("GR"), get("CY")
	// Paper: UK 58.4%, Spain 33.1%, Greece 6.77%, Cyprus 1.16%.
	if gb < 30 || gb > 75 {
		t.Errorf("UK confinement = %.1f%%, want ~58%%", gb)
	}
	if es < 18 || es > 50 {
		t.Errorf("Spain confinement = %.1f%%, want ~33%%", es)
	}
	if gr > 15 {
		t.Errorf("Greece confinement = %.1f%%, want single digits", gr)
	}
	if cy > 8 {
		t.Errorf("Cyprus confinement = %.1f%%, want ~1%%", cy)
	}
	// Ordering: large-infrastructure countries confine more.
	if !(gb > es && es > gr && gr >= cy) {
		t.Errorf("confinement ordering violated: GB=%.1f ES=%.1f GR=%.1f CY=%.1f", gb, es, gr, cy)
	}
}

func TestInfraDensityCorrelation(t *testing.T) {
	// §4.2/§5: confinement correlates with IT-infrastructure density.
	r := testSuite(t).Fig8()
	var x, y []float64
	for _, c := range r.Confinement {
		if c.Flows < 500 {
			continue
		}
		x = append(x, float64(geodata.InfraDensity(c.Country)))
		y = append(y, c.InCountry)
	}
	if len(x) < 5 {
		t.Skip("too few countries at this scale")
	}
	if corr := pearson(x, y); corr < 0.3 {
		t.Errorf("density/confinement correlation = %.2f, want positive", corr)
	}
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		cov += (x[i] - mx) * (y[i] - my)
		vx += (x[i] - mx) * (x[i] - mx)
		vy += (y[i] - my) * (y[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / (sqrt(vx) * sqrt(vy))
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}

func TestTable5LocalizationLadder(t *testing.T) {
	r := testSuite(t).Table5()
	if r.Flows == 0 {
		t.Fatal("no flows")
	}
	d := r.Row(locality.Default)
	f := r.Row(locality.RedirectFQDN)
	tl := r.Row(locality.RedirectTLD)
	pop := r.Row(locality.PoPMirror)
	combo := r.Row(locality.RedirectTLDPlusPoP)

	// The paper's ladder: Default < FQDN < TLD at country level; PoP
	// mirroring helps the continent but barely the country; the combo
	// dominates everything.
	if !(d.InCountry < f.InCountry && f.InCountry < tl.InCountry) {
		t.Errorf("country ladder broken: %.1f %.1f %.1f", d.InCountry, f.InCountry, tl.InCountry)
	}
	if !(d.InEurope <= f.InEurope && f.InEurope <= tl.InEurope) {
		t.Errorf("continent ladder broken: %.1f %.1f %.1f", d.InEurope, f.InEurope, tl.InEurope)
	}
	if pop.InCountry-d.InCountry > tl.InCountry-d.InCountry {
		t.Error("PoP mirroring must improve country level less than TLD redirection")
	}
	if pop.InEurope < d.InEurope {
		t.Error("PoP mirroring must not hurt continent confinement")
	}
	if combo.InCountry < tl.InCountry || combo.InEurope < tl.InEurope {
		t.Error("combined scenario must dominate TLD redirection")
	}
	// TLD redirection gives a large national improvement (paper: +38.5).
	if tl.InCountry-d.InCountry < 15 {
		t.Errorf("TLD improvement = %.1f points, want large (~38)", tl.InCountry-d.InCountry)
	}
}

func TestTable6CloudMigration(t *testing.T) {
	r := testSuite(t).Table6()
	cy, ok := r.Row("CY")
	if !ok {
		t.Fatal("no Cyprus row")
	}
	// Cyprus has no cloud PoP: zero improvement (paper's Table 6).
	if cy.PoPOverTLD != 0 || cy.MigrationOverTLD != 0 {
		t.Errorf("Cyprus improvements = %+v, want 0", cy)
	}
	gr, ok := r.Row("GR")
	if !ok {
		t.Fatal("no Greece row")
	}
	// Greece gains hugely from migration (paper: +79.25) but almost
	// nothing from PoP mirroring (paper: +1.29).
	if gr.MigrationOverTLD < 40 {
		t.Errorf("Greece migration improvement = %.1f, want large", gr.MigrationOverTLD)
	}
	if gr.PoPOverTLD > 20 {
		t.Errorf("Greece PoP improvement = %.1f, want small", gr.PoPOverTLD)
	}
	// Migration dominates PoP mirroring everywhere.
	for _, row := range r.Rows {
		if row.MigrationOverTLD+1e-9 < row.PoPOverTLD {
			t.Errorf("%s: migration %.1f < PoP %.1f", row.Country, row.MigrationOverTLD, row.PoPOverTLD)
		}
	}
}

func TestFig9SensitiveShares(t *testing.T) {
	r := testSuite(t).Fig9()
	// Paper: 2.89% of tracking flows are sensitive.
	if p := r.Report.PctOfAll(); p < 1 || p > 7 {
		t.Errorf("sensitive share = %.2f%%, want ~2.9%%", p)
	}
	// Health dominates, gambling second (Fig 9).
	health := r.Share(webgraph.SensHealth)
	gambling := r.Share(webgraph.SensGambling)
	if health < gambling {
		t.Errorf("health %.1f%% < gambling %.1f%%", health, gambling)
	}
	if health < 20 || health > 55 {
		t.Errorf("health share = %.1f%%, want ~38%%", health)
	}
	if len(r.Report.Shares) < 10 {
		t.Errorf("only %d categories with flows, want ~12", len(r.Report.Shares))
	}
}

func TestFig10SensitiveConfinementMatchesGeneral(t *testing.T) {
	su := testSuite(t)
	r := su.Fig10()
	overall := r.OverallEU28Share()
	// The paper's key finding: sensitive flows are confined like general
	// traffic (~84.9% EU28).
	general := su.Fig7().IPMapEU28()
	diff := overall - general
	if diff < -12 || diff > 12 {
		t.Errorf("sensitive EU28 share %.1f%% vs general %.1f%%: should be similar", overall, general)
	}
}

func TestFig11SensitiveLeakage(t *testing.T) {
	r := testSuite(t).Fig11()
	if len(r.Leaks) == 0 {
		t.Fatal("no per-country leakage")
	}
	for _, l := range r.Leaks {
		if l.Outside > l.Total {
			t.Fatalf("%s outside > total", l.Country)
		}
	}
	// Small countries leak more than big ones when both are present.
	byC := map[geodata.Country]float64{}
	for _, l := range r.Leaks {
		if l.Total >= 50 {
			byC[l.Country] = l.OutsidePct()
		}
	}
	if de, okDE := byC["DE"]; okDE {
		if cy, okCY := byC["CY"]; okCY && cy < de {
			t.Errorf("Cyprus leakage %.1f%% < Germany %.1f%%", cy, de)
		}
	}
}

func TestTable7Profiles(t *testing.T) {
	r := testSuite(t).Table7()
	if len(r.ISPs) != 4 {
		t.Fatalf("ISPs = %d", len(r.ISPs))
	}
	if !strings.Contains(r.Render(), "DE-Broadband") {
		t.Error("render missing ISP")
	}
}

func TestTable8ISPConfinement(t *testing.T) {
	su := testSuite(t)
	r := su.Table8()
	if len(r.Reports) != 16 {
		t.Fatalf("reports = %d, want 4 ISPs x 4 dates", len(r.Reports))
	}
	for _, rep := range r.Reports {
		// Paper: EU28 confinement 75-93% across all ISP-days.
		if rep.EU28 < 65 || rep.EU28 > 97 {
			t.Errorf("%s %s EU28 = %.1f%%, want 75-93%%", rep.ISP, rep.Date.Format("01-02"), rep.EU28)
		}
		if rep.SampledFlows == 0 {
			t.Errorf("%s %s: no flows", rep.ISP, rep.Date.Format("01-02"))
		}
	}
	// Mobile operators confine more than broadband (§7.3).
	apr := SnapshotDates()[1]
	deB, _ := r.Report("DE-Broadband", apr)
	deM, _ := r.Report("DE-Mobile", apr)
	if deM.EU28 < deB.EU28-3 {
		t.Errorf("DE-Mobile EU28 %.1f%% much below DE-Broadband %.1f%%", deM.EU28, deB.EU28)
	}
	// Flow magnitudes: DE-Broadband carries the most (Table 8).
	if deB.SampledFlows < deM.SampledFlows {
		t.Error("DE-Broadband must carry more sampled flows than DE-Mobile")
	}
}

func TestFig12TopCountries(t *testing.T) {
	su := testSuite(t)
	r := su.Fig12(su.Table8())
	if len(r.PerISP) != 4 {
		t.Fatalf("ISPs = %d", len(r.PerISP))
	}
	// German ISPs confine most flows nationally; PL almost nothing
	// (Fig 12: DE 69%/67%, PL 0.25%).
	de := r.NationalShare("DE-Broadband", "DE")
	pl := r.NationalShare("PL", "PL")
	if de < 35 {
		t.Errorf("DE-Broadband national share = %.1f%%, want ~69%%", de)
	}
	if pl > 8 {
		t.Errorf("PL national share = %.1f%%, want ~0.25%%", pl)
	}
	if de <= pl {
		t.Error("German confinement must exceed Polish")
	}
	// Hungary's flows land in the CEE hub (Austria) more than at home.
	hu := r.NationalShare("HU", "HU")
	at := r.NationalShare("HU", "AT")
	if at <= hu {
		t.Errorf("HU ISP: Austria %.1f%% <= Hungary %.1f%%, want Vienna-dominant (Fig 12d)", at, hu)
	}
}

func TestTable9Transcription(t *testing.T) {
	rows := Table9()
	if len(rows) != 14 {
		t.Fatalf("rows = %d, want 14 studies incl. this work", len(rows))
	}
	if rows[len(rows)-1].Study != "This work" {
		t.Error("last row must be this work")
	}
	if !strings.Contains(RenderTable9(), "RIPE IPmap") {
		t.Error("render missing IPmap cell")
	}
}

// TestLocalityTablesShareOneEngine: a Suite builds one locality engine
// for Tables 5 and 6, even when both are first asked for concurrently
// (as RunAll does), and its answers equal two independently built
// engines'. Callers get their own rows.
func TestLocalityTablesShareOneEngine(t *testing.T) {
	s := testSuite(t).S
	e5 := locality.NewEngine(s.Dataset, s.IPMap, s.OrgClouds)
	e6 := locality.NewEngine(s.Dataset, s.IPMap, s.OrgClouds)
	rows := e5.Table5()
	want5 := Table5Result{Flows: e5.TotalFlows(), Rows: rows, Default: rows[0]}
	want6 := Table6Result{Rows: e6.Table6(table6Countries)}

	su := NewSuite(s)
	var got5 Table5Result
	var got6 Table6Result
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); got5 = su.Table5() }()
	go func() { defer wg.Done(); got6 = su.Table6() }()
	wg.Wait()
	if !reflect.DeepEqual(got5, want5) {
		t.Errorf("shared-engine Table5 %+v, fresh engine %+v", got5, want5)
	}
	if !reflect.DeepEqual(got6, want6) {
		t.Errorf("shared-engine Table6 %+v, fresh engine %+v", got6, want6)
	}
	got5.Rows[0].InCountry = -1
	got6.Rows[0].Requests = -1
	if !reflect.DeepEqual(su.Table5(), want5) || !reflect.DeepEqual(su.Table6(), want6) {
		t.Error("a caller's edit to its rows reached the Suite's cached tables")
	}
}
