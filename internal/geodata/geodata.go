// Package geodata provides the static geographic facts the reproduction
// depends on: country and continent identifiers, the EU28 membership set
// (as of 2018, i.e. including the United Kingdom), capital coordinates used
// by the RTT model, the datacenter footprints of nine major public cloud
// providers, and a per-country IT-infrastructure density index.
//
// Everything in this package is deterministic reference data transcribed
// from public sources; nothing here is synthetic.
package geodata

import "fmt"

// Continent identifies one of the world regions used throughout the paper.
// The paper treats EU28 as a region distinct from the rest of Europe, so
// this type distinguishes them too.
type Continent uint8

// Continents, in the order the paper's Sankey diagrams list them.
const (
	ContinentUnknown Continent = iota
	EU28                       // European Union member states as of 2018
	RestOfEurope               // European countries outside the EU28
	NorthAmerica
	SouthAmerica
	Asia
	Africa
	Oceania
)

var continentNames = map[Continent]string{
	ContinentUnknown: "Unknown",
	EU28:             "EU 28",
	RestOfEurope:     "Rest of Europe",
	NorthAmerica:     "N. America",
	SouthAmerica:     "S. America",
	Asia:             "Asia",
	Africa:           "Africa",
	Oceania:          "Oceania",
}

// String returns the display name used in the paper's figures.
func (c Continent) String() string {
	if s, ok := continentNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Continent(%d)", uint8(c))
}

// AllContinents lists every region in display order.
func AllContinents() []Continent {
	return []Continent{EU28, RestOfEurope, NorthAmerica, SouthAmerica, Asia, Africa, Oceania}
}

// Country is an ISO 3166-1 alpha-2 country code.
type Country string

// Info carries the per-country reference data.
type Info struct {
	Code      Country
	Name      string
	Continent Continent
	// Lat and Lon locate the country's capital (or main IXP city for
	// large countries); used by the great-circle RTT model.
	Lat, Lon float64
	// InfraDensity is a 0..100 index of IT/datacenter infrastructure
	// density. The paper correlates national confinement with this.
	InfraDensity int
}

// countries is the master table. EU28 membership is 2018-era: the United
// Kingdom is included. InfraDensity is a coarse rank derived from public
// datacenter counts (Germany, Netherlands, UK, France, Ireland high; small
// EU members low).
var countries = []Info{
	// EU28 (2018 membership).
	{"AT", "Austria", EU28, 48.21, 16.37, 40},
	{"BE", "Belgium", EU28, 50.85, 4.35, 38},
	{"BG", "Bulgaria", EU28, 42.70, 23.32, 18},
	{"HR", "Croatia", EU28, 45.81, 15.98, 12},
	{"CY", "Cyprus", EU28, 35.17, 33.37, 4},
	{"CZ", "Czechia", EU28, 50.08, 14.44, 26},
	{"DK", "Denmark", EU28, 55.68, 12.57, 30},
	{"EE", "Estonia", EU28, 59.44, 24.75, 14},
	{"FI", "Finland", EU28, 60.17, 24.94, 28},
	{"FR", "France", EU28, 48.86, 2.35, 72},
	{"DE", "Germany", EU28, 50.11, 8.68, 90}, // Frankfurt
	{"GR", "Greece", EU28, 37.98, 23.73, 10},
	{"HU", "Hungary", EU28, 47.50, 19.04, 20},
	{"IE", "Ireland", EU28, 53.35, -6.26, 62},
	{"IT", "Italy", EU28, 45.46, 9.19, 44}, // Milan
	{"LV", "Latvia", EU28, 56.95, 24.11, 10},
	{"LT", "Lithuania", EU28, 54.69, 25.28, 12},
	{"LU", "Luxembourg", EU28, 49.61, 6.13, 22},
	{"MT", "Malta", EU28, 35.90, 14.51, 5},
	{"NL", "Netherlands", EU28, 52.37, 4.90, 85}, // Amsterdam
	{"PL", "Poland", EU28, 52.23, 21.01, 30},
	{"PT", "Portugal", EU28, 38.72, -9.14, 16},
	{"RO", "Romania", EU28, 44.43, 26.10, 14},
	{"SK", "Slovakia", EU28, 48.15, 17.11, 12},
	{"SI", "Slovenia", EU28, 46.05, 14.51, 10},
	{"ES", "Spain", EU28, 40.42, -3.70, 42},
	{"SE", "Sweden", EU28, 59.33, 18.07, 36},
	{"GB", "United Kingdom", EU28, 51.51, -0.13, 80},

	// Rest of Europe.
	{"CH", "Switzerland", RestOfEurope, 47.38, 8.54, 45},
	{"NO", "Norway", RestOfEurope, 59.91, 10.75, 24},
	{"RU", "Russia", RestOfEurope, 55.76, 37.62, 30},
	{"RS", "Serbia", RestOfEurope, 44.79, 20.45, 8},
	{"MD", "Moldova", RestOfEurope, 47.01, 28.86, 4},
	{"UA", "Ukraine", RestOfEurope, 50.45, 30.52, 12},
	{"TR", "Turkey", RestOfEurope, 41.01, 28.98, 18},

	// North America.
	{"US", "United States", NorthAmerica, 39.04, -77.49, 100}, // Ashburn
	{"CA", "Canada", NorthAmerica, 43.65, -79.38, 40},
	{"MX", "Mexico", NorthAmerica, 19.43, -99.13, 16},
	{"PA", "Panama", NorthAmerica, 8.98, -79.52, 5},

	// South America.
	{"BR", "Brazil", SouthAmerica, -23.55, -46.63, 24}, // São Paulo
	{"AR", "Argentina", SouthAmerica, -34.60, -58.38, 12},
	{"CL", "Chile", SouthAmerica, -33.45, -70.67, 12},
	{"CO", "Colombia", SouthAmerica, 4.71, -74.07, 10},
	{"PE", "Peru", SouthAmerica, -12.05, -77.04, 6},

	// Asia.
	{"JP", "Japan", Asia, 35.68, 139.69, 46},
	{"SG", "Singapore", Asia, 1.35, 103.82, 48},
	{"HK", "Hong Kong", Asia, 22.32, 114.17, 36},
	{"IN", "India", Asia, 19.08, 72.88, 26}, // Mumbai
	{"CN", "China", Asia, 39.90, 116.41, 40},
	{"TW", "Taiwan", Asia, 25.03, 121.57, 18},
	{"MY", "Malaysia", Asia, 3.14, 101.69, 12},
	{"TH", "Thailand", Asia, 13.76, 100.50, 10},
	{"KR", "South Korea", Asia, 37.57, 126.98, 28},
	{"IL", "Israel", Asia, 32.07, 34.79, 20},

	// Africa.
	{"ZA", "South Africa", Africa, -26.20, 28.05, 14},
	{"TN", "Tunisia", Africa, 36.81, 10.18, 5},
	{"EG", "Egypt", Africa, 30.04, 31.24, 8},
	{"NG", "Nigeria", Africa, 6.52, 3.37, 6},
	{"KE", "Kenya", Africa, -1.29, 36.82, 6},

	// Oceania.
	{"AU", "Australia", Oceania, -33.87, 151.21, 26},
	{"NZ", "New Zealand", Oceania, -36.85, 174.76, 10},
}

// byPair maps a country code to its dense index, its position in
// countries (which is also AllCountries order), without hashing: the
// index plus one at pairSlot(code), zero for a code not in the table.
// Every code in the table is two upper-case letters; init enforces it.
var byPair [26 * 26]uint8

func init() {
	if len(countries) >= 255 {
		panic("geodata: country table outgrows byPair")
	}
	for i, c := range countries {
		s, ok := pairSlot(c.Code)
		if !ok {
			panic("geodata: country code is not two upper-case letters: " + string(c.Code))
		}
		if byPair[s] != 0 {
			panic("geodata: duplicate country " + string(c.Code))
		}
		byPair[s] = uint8(i + 1)
	}
	initDistances()
}

func pairSlot(code Country) (int, bool) {
	if len(code) != 2 {
		return 0, false
	}
	a, b := code[0]-'A', code[1]-'A'
	if a >= 26 || b >= 26 {
		return 0, false
	}
	return int(a)*26 + int(b), true
}

// Index returns the country's dense index: its position in
// AllCountries. ok is false for an unknown code. Every lookup by code
// in this package goes through it.
func Index(code Country) (int, bool) {
	s, ok := pairSlot(code)
	if !ok {
		return -1, false
	}
	i := byPair[s]
	return int(i) - 1, i != 0
}

// Lookup returns the reference data for a country code.
func Lookup(code Country) (Info, bool) {
	if i, ok := Index(code); ok {
		return countries[i], true
	}
	return Info{}, false
}

// Name returns the country's display name, or the code itself if unknown.
func Name(code Country) string {
	if i, ok := Index(code); ok {
		return countries[i].Name
	}
	return string(code)
}

// ContinentOf returns the region a country belongs to.
func ContinentOf(code Country) Continent {
	if i, ok := Index(code); ok {
		return countries[i].Continent
	}
	return ContinentUnknown
}

// IsEU28 reports whether the country was an EU member state in 2018.
func IsEU28(code Country) bool { return ContinentOf(code) == EU28 }

// AllCountries returns every country in the table, in table order.
// The returned slice is a copy and may be modified by the caller.
func AllCountries() []Info {
	out := make([]Info, len(countries))
	copy(out, countries)
	return out
}

// EU28Countries returns the 28 member states (2018 membership, incl. GB).
func EU28Countries() []Info {
	var out []Info
	for _, c := range countries {
		if c.Continent == EU28 {
			out = append(out, c)
		}
	}
	return out
}

// InfraDensity returns the IT-infrastructure density index for a country,
// or zero if unknown.
func InfraDensity(code Country) int {
	if i, ok := Index(code); ok {
		return countries[i].InfraDensity
	}
	return 0
}
