package geodata

// CloudProvider identifies one of the nine major public cloud / hosting
// providers whose datacenter footprints the paper's §5.2 what-if analysis
// uses (Amazon AWS, Microsoft Azure, IBM Cloud, CloudFlare, Digital Ocean,
// Equinix, Oracle Cloud, Rackspace, Google Cloud).
type CloudProvider string

// The nine providers of §5.2.
const (
	AWS          CloudProvider = "AWS"
	Azure        CloudProvider = "Azure"
	IBMCloud     CloudProvider = "IBM Cloud"
	CloudFlare   CloudProvider = "CloudFlare"
	DigitalOcean CloudProvider = "Digital Ocean"
	Equinix      CloudProvider = "Equinix"
	OracleCloud  CloudProvider = "Oracle Cloud"
	Rackspace    CloudProvider = "Rackspace"
	GoogleCloud  CloudProvider = "Google Cloud"
)

// AllCloudProviders lists the nine providers in a stable order.
func AllCloudProviders() []CloudProvider {
	return []CloudProvider{
		AWS, Azure, IBMCloud, CloudFlare, DigitalOcean,
		Equinix, OracleCloud, Rackspace, GoogleCloud,
	}
}

// cloudPoPs records, per provider, the countries where the provider
// advertised an operational datacenter region or PoP circa 2018. The EU
// coverage is what drives Tables 5 and 6: the hyperscalers cluster in
// IE/NL/DE/FR/GB, CloudFlare and Equinix have the broadest EU footprints,
// and Cyprus hosts no PoP of any of the nine (hence its zero improvement
// in Table 6).
var cloudPoPs = map[CloudProvider][]Country{
	AWS: {
		"IE", "DE", "GB", "FR", "SE", // Europe
		"US", "CA", "BR", "JP", "SG", "IN", "KR", "AU", "CN",
	},
	Azure: {
		"IE", "NL", "GB", "FR", "DE", "AT",
		"US", "CA", "BR", "JP", "SG", "IN", "KR", "AU", "HK", "ZA",
	},
	IBMCloud: {
		"DE", "GB", "NL", "FR", "IT", "NO",
		"US", "CA", "BR", "MX", "JP", "SG", "IN", "KR", "AU", "HK",
	},
	CloudFlare: {
		// Anycast edge: very broad, including many smaller EU countries.
		"DE", "NL", "GB", "FR", "ES", "IT", "AT", "BE", "CZ", "DK",
		"FI", "GR", "HU", "PL", "PT", "RO", "SE", "IE", "BG", "HR",
		"EE", "LV", "LT", "LU", "SK", "SI",
		"CH", "NO", "RU", "RS", "UA", "TR",
		"US", "CA", "MX", "PA", "BR", "AR", "CL", "CO", "PE",
		"JP", "SG", "HK", "IN", "CN", "TW", "MY", "TH", "KR", "IL",
		"ZA", "EG", "KE", "NG", "AU", "NZ",
	},
	DigitalOcean: {
		"NL", "DE", "GB",
		"US", "CA", "SG", "IN",
	},
	Equinix: {
		"DE", "NL", "GB", "FR", "IT", "ES", "PL", "FI", "SE", "BG",
		"CH", "TR",
		"US", "CA", "BR", "CO", "MX",
		"JP", "SG", "HK", "CN", "AU",
	},
	OracleCloud: {
		"DE", "GB", "NL",
		"US", "CA", "BR", "JP", "SG", "IN", "KR", "AU",
	},
	Rackspace: {
		"GB", "DE",
		"US", "HK", "AU",
	},
	GoogleCloud: {
		"IE", "NL", "BE", "GB", "DE", "FI",
		"US", "CA", "BR", "CL", "JP", "SG", "IN", "TW", "HK", "AU",
	},
}

// CloudPoPCountries returns the countries where the provider operates a
// datacenter or PoP. Unknown provider yields nil. Entries that are not
// valid country codes in the master table are filtered out.
func CloudPoPCountries(p CloudProvider) []Country {
	var out []Country
	for _, c := range cloudPoPs[p] {
		if _, ok := Index(c); ok {
			out = append(out, c)
		}
	}
	return out
}

// CloudHasPoP reports whether provider p advertises a PoP in country c.
func CloudHasPoP(p CloudProvider, c Country) bool {
	for _, cc := range cloudPoPs[p] {
		if cc == c {
			return true
		}
	}
	return false
}

// AnyCloudPoP reports whether any of the nine providers has a PoP in c.
// Cyprus is the canonical false case (Table 6).
func AnyCloudPoP(c Country) bool {
	for _, p := range AllCloudProviders() {
		if CloudHasPoP(p, c) {
			return true
		}
	}
	return false
}

// CloudsWithPoPIn returns the subset of the nine providers present in c.
func CloudsWithPoPIn(c Country) []CloudProvider {
	var out []CloudProvider
	for _, p := range AllCloudProviders() {
		if CloudHasPoP(p, c) {
			out = append(out, p)
		}
	}
	return out
}
