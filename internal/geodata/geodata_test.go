package geodata

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEU28Membership(t *testing.T) {
	eu := EU28Countries()
	if len(eu) != 28 {
		t.Fatalf("EU28 member count = %d, want 28 (2018 membership incl. GB)", len(eu))
	}
	for _, want := range []Country{"GB", "DE", "FR", "ES", "CY", "MT", "HR"} {
		if !IsEU28(want) {
			t.Errorf("IsEU28(%s) = false, want true", want)
		}
	}
	for _, not := range []Country{"CH", "NO", "RU", "US", "TR", "RS"} {
		if IsEU28(not) {
			t.Errorf("IsEU28(%s) = true, want false", not)
		}
	}
}

func TestLookupAndNames(t *testing.T) {
	info, ok := Lookup("DE")
	if !ok {
		t.Fatal("Lookup(DE) not found")
	}
	if info.Name != "Germany" || info.Continent != EU28 {
		t.Errorf("Lookup(DE) = %+v", info)
	}
	if Name("DE") != "Germany" {
		t.Errorf("Name(DE) = %q", Name("DE"))
	}
	if Name("XX") != "XX" {
		t.Errorf("Name(XX) = %q, want fallback to code", Name("XX"))
	}
	if _, ok := Lookup("XX"); ok {
		t.Error("Lookup(XX) found, want missing")
	}
}

func TestContinentOf(t *testing.T) {
	cases := map[Country]Continent{
		"US": NorthAmerica, "BR": SouthAmerica, "JP": Asia,
		"ZA": Africa, "AU": Oceania, "CH": RestOfEurope, "GR": EU28,
		"??": ContinentUnknown,
	}
	for code, want := range cases {
		if got := ContinentOf(code); got != want {
			t.Errorf("ContinentOf(%s) = %v, want %v", code, got, want)
		}
	}
}

func TestContinentString(t *testing.T) {
	if EU28.String() != "EU 28" {
		t.Errorf("EU28.String() = %q", EU28.String())
	}
	if NorthAmerica.String() != "N. America" {
		t.Errorf("NorthAmerica.String() = %q", NorthAmerica.String())
	}
	if Continent(99).String() == "" {
		t.Error("unknown continent should still format")
	}
}

func TestAllCountriesCopy(t *testing.T) {
	a := AllCountries()
	a[0].Name = "mutated"
	b := AllCountries()
	if b[0].Name == "mutated" {
		t.Error("AllCountries must return a copy")
	}
}

func TestAllCountriesHaveValidData(t *testing.T) {
	for _, c := range AllCountries() {
		if len(c.Code) != 2 {
			t.Errorf("country %q: code must be 2 letters", c.Code)
		}
		if c.Continent == ContinentUnknown {
			t.Errorf("country %s: unknown continent", c.Code)
		}
		if c.Lat < -90 || c.Lat > 90 || c.Lon < -180 || c.Lon > 180 {
			t.Errorf("country %s: coordinates out of range (%f, %f)", c.Code, c.Lat, c.Lon)
		}
		if c.InfraDensity < 0 || c.InfraDensity > 100 {
			t.Errorf("country %s: infra density %d out of [0,100]", c.Code, c.InfraDensity)
		}
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	// Frankfurt (DE) to Ashburn/Washington (US) is ~6,500 km.
	d := DistanceKm("DE", "US")
	if d < 5500 || d > 7500 {
		t.Errorf("DE-US distance = %.0f km, want ~6500", d)
	}
	// Germany to Netherlands is short.
	if d := DistanceKm("DE", "NL"); d < 100 || d > 600 {
		t.Errorf("DE-NL distance = %.0f km, want a few hundred", d)
	}
	if d := DistanceKm("DE", "DE"); d != 0 {
		t.Errorf("self distance = %f, want 0", d)
	}
	if d := DistanceKm("DE", "??"); d != -1 {
		t.Errorf("unknown country distance = %f, want -1", d)
	}
}

// TestDistanceTableMatchesHaversine pins the distance table to the
// formula it caches: every ordered pair, compared bit for bit, and -1
// whenever either code is unknown.
func TestDistanceTableMatchesHaversine(t *testing.T) {
	all := AllCountries()
	for i, a := range all {
		if got, ok := Index(a.Code); !ok || got != i {
			t.Fatalf("Index(%s) = %d, %v; want %d, true", a.Code, got, ok, i)
		}
		for j, b := range all {
			want := HaversineKm(a.Lat, a.Lon, b.Lat, b.Lon)
			if got := DistanceKm(a.Code, b.Code); got != want {
				t.Fatalf("DistanceKm(%s, %s) = %v, HaversineKm gives %v", a.Code, b.Code, got, want)
			}
			if got := DistanceKmAt(i, j); got != want {
				t.Fatalf("DistanceKmAt(%d, %d) = %v, HaversineKm gives %v", i, j, got, want)
			}
		}
		for _, unknown := range []Country{"", "??", "XX", "de"} {
			if d := DistanceKm(a.Code, unknown); d != -1 {
				t.Fatalf("DistanceKm(%s, %q) = %v, want -1", a.Code, unknown, d)
			}
			if d := DistanceKm(unknown, a.Code); d != -1 {
				t.Fatalf("DistanceKm(%q, %s) = %v, want -1", unknown, a.Code, d)
			}
		}
	}
	if _, ok := Index("XX"); ok {
		t.Error("Index(XX) found, want missing")
	}
}

func TestHaversineProperties(t *testing.T) {
	// Symmetry and non-negativity over random coordinates.
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		// Clamp generated values into valid coordinate ranges.
		clampLat := func(v float64) float64 { return math.Mod(math.Abs(v), 90) }
		clampLon := func(v float64) float64 { return math.Mod(math.Abs(v), 180) }
		a1, o1 := clampLat(lat1), clampLon(lon1)
		a2, o2 := clampLat(lat2), clampLon(lon2)
		d1 := HaversineKm(a1, o1, a2, o2)
		d2 := HaversineKm(a2, o2, a1, o1)
		if d1 < 0 || d2 < 0 {
			return false
		}
		// Max great-circle distance is half Earth's circumference.
		if d1 > 20100 {
			return false
		}
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinRTT(t *testing.T) {
	if got := MinRTTms(1000); got != 10 {
		t.Errorf("MinRTTms(1000) = %f, want 10", got)
	}
	if got := MinRTTms(0); got != 0 {
		t.Errorf("MinRTTms(0) = %f, want 0", got)
	}
	if got := MinRTTms(-5); got != 0 {
		t.Errorf("MinRTTms(-5) = %f, want 0", got)
	}
}

func TestCloudPoPs(t *testing.T) {
	if len(AllCloudProviders()) != 9 {
		t.Fatalf("provider count = %d, want 9", len(AllCloudProviders()))
	}
	// Cyprus hosts no PoP of any of the nine (Table 6 zero case).
	if AnyCloudPoP("CY") {
		t.Error("Cyprus must have no cloud PoP")
	}
	// Germany is covered by most providers.
	if n := len(CloudsWithPoPIn("DE")); n < 5 {
		t.Errorf("Germany covered by %d providers, want >= 5", n)
	}
	// Denmark has at least one PoP among the nine (GoogleCloud/CloudFlare)
	// so migration can confine it (Table 6).
	if !AnyCloudPoP("DK") {
		t.Error("Denmark must have at least one cloud PoP")
	}
	// Every advertised PoP country must be a valid country code.
	for _, p := range AllCloudProviders() {
		for _, c := range CloudPoPCountries(p) {
			if _, ok := Lookup(c); !ok {
				t.Errorf("%s PoP country %q not in master table", p, c)
			}
		}
	}
	if CloudHasPoP(AWS, "CY") {
		t.Error("AWS must not have a Cyprus PoP")
	}
	if !CloudHasPoP(AWS, "IE") {
		t.Error("AWS must have an Ireland PoP")
	}
}

func TestEveryEUCountryReachableByMigration(t *testing.T) {
	// The paper notes every EU28 country has at least one datacenter, but
	// among the NINE clouds only Cyprus and Malta may lack a PoP. Verify
	// our data: count EU28 countries without any of the nine.
	missing := 0
	for _, c := range EU28Countries() {
		if !AnyCloudPoP(c.Code) {
			missing++
		}
	}
	if missing > 6 {
		t.Errorf("%d EU28 countries lack any of the nine clouds; footprint too sparse", missing)
	}
}

// TestIndexMatchesTableScan: Index answers each code's position in
// AllCountries, found by a linear scan, and misses codes not in it.
func TestIndexMatchesTableScan(t *testing.T) {
	all := AllCountries()
	codes := []Country{"", "A", "ZZ", "zz", "de", "DEU", "D1", "[A", "@Z"}
	for _, c := range all {
		codes = append(codes, c.Code)
	}
	for _, c := range codes {
		want, wantOK := -1, false
		for i, info := range all {
			if info.Code == c {
				want, wantOK = i, true
				break
			}
		}
		got, ok := Index(c)
		if ok != wantOK || (ok && got != want) {
			t.Errorf("Index(%q) = %d, %v; table scan says %d, %v", c, got, ok, want, wantOK)
		}
	}
}
