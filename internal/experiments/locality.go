package experiments

import (
	"fmt"
	"slices"

	"crossborder/internal/geodata"
	"crossborder/internal/locality"
	"crossborder/internal/tablefmt"
)

// Table5Result reproduces Table 5: confinement under the localization
// what-if scenarios.
type Table5Result struct {
	Flows   int64
	Rows    []locality.Result
	Default locality.Result
}

// Row returns the result for one scenario.
func (r Table5Result) Row(s locality.Scenario) locality.Result {
	for _, row := range r.Rows {
		if row.Scenario == s {
			return row
		}
	}
	return locality.Result{}
}

// locality builds the §5 engine (IPmap geolocation, like the paper)
// once per Suite and evaluates both of its tables at once. Only the
// small results stay on the Suite: the engine's per-FQDN tables are
// dropped as soon as both tables exist.
func (su *Suite) locality() {
	su.once.locality.Do(func() {
		e := locality.NewEngine(su.S.Dataset, su.S.IPMap, su.S.OrgClouds)
		rows := e.Table5()
		su.table5 = Table5Result{Flows: e.TotalFlows(), Rows: rows, Default: rows[0]}
		su.table6 = Table6Result{Rows: e.Table6(table6Countries)}
	})
}

// Table5 evaluates the five scenarios.
func (su *Suite) Table5() Table5Result {
	su.locality()
	r := su.table5
	r.Rows = slices.Clone(r.Rows)
	return r
}

// Render formats the table with improvement columns.
func (r Table5Result) Render() string {
	t := tablefmt.NewTable(
		fmt.Sprintf("Table 5: localization improvements (EU28 flows: %d)", r.Flows),
		"Scenario", "In Country %", "In Cont. %", "Impr. Country", "Impr. Cont.")
	for _, row := range r.Rows {
		t.AddRow(row.Scenario.String(), row.InCountry, row.InEurope,
			row.InCountry-r.Default.InCountry, row.InEurope-r.Default.InEurope)
	}
	return t.String()
}

// Table6Result reproduces Table 6: per-country improvements of PoP
// mirroring and full cloud migration over TLD redirection.
type Table6Result struct {
	Rows []locality.CountryImprovement
}

// table6Countries is the paper's selection.
var table6Countries = []geodata.Country{"GB", "ES", "GR", "IT", "RO", "CY", "DK"}

// Table6 evaluates the per-country what-ifs.
func (su *Suite) Table6() Table6Result {
	su.locality()
	return Table6Result{Rows: slices.Clone(su.table6.Rows)}
}

// Row returns the improvement row for one country.
func (r Table6Result) Row(c geodata.Country) (locality.CountryImprovement, bool) {
	for _, row := range r.Rows {
		if row.Country == c {
			return row, true
		}
	}
	return locality.CountryImprovement{}, false
}

// Render formats the table.
func (r Table6Result) Render() string {
	t := tablefmt.NewTable(
		"Table 6: improvements over TLD redirection (EU28 countries)",
		"Country", "# Requests", "PoP Mirroring impr. %", "Cloud Migration impr. %")
	for _, row := range r.Rows {
		t.AddRow(geodata.Name(row.Country), row.Requests, row.PoPOverTLD, row.MigrationOverTLD)
	}
	return t.String()
}
