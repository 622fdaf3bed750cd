package geo

import (
	"crossborder/internal/netsim"
)

// CommercialDB emulates a MaxMind-style commercial geolocation database.
// Commercial databases optimize for locating *end users* (their paying use
// case) and fall back to the legal registrant's address for infrastructure
// ranges (§3.4, Table 4: roughly half the IPs of Google/Amazon/Facebook
// are geolocated to the wrong country, typically the US headquarters).
//
// Behaviour:
//   - eyeball IPs: accurate (the databases' purpose);
//   - server IPs in the org's HQ country: accurate (HQ fallback is right);
//   - server IPs elsewhere: geolocated to the org's HQ with probability
//     HQBias, to a nearby country with probability NeighborNoise, and
//     correctly otherwise.
type CommercialDB struct {
	ServiceName string
	World       *netsim.World
	// HQBias is the probability that a non-HQ infrastructure block is
	// pinned to the org's HQ country. NewMaxMind sets 0.80; a zero value
	// means 0.87.
	HQBias float64
	// NeighborNoise is the probability of a near-miss to a neighboring
	// country instead. NewMaxMind sets 0.05; a zero value means no
	// near-misses.
	NeighborNoise float64
	// Salt decorrelates two databases built over the same world, so
	// MaxMind and IP-API agree highly but not perfectly (Table 3: 96%).
	Salt uint64
}

// NewMaxMind returns the MaxMind-style database emulator.
func NewMaxMind(w *netsim.World) *CommercialDB {
	return &CommercialDB{ServiceName: "maxmind", World: w, HQBias: 0.80, NeighborNoise: 0.05, Salt: 0x6d61786d696e64}
}

// DerivedDB emulates a second commercial database (IP-API) that shares
// data sources with the first: it repeats the base database's answer for
// most blocks and deviates on a small fraction, producing the
// high-but-imperfect pairwise agreement of Table 3 (96.13% on country).
type DerivedDB struct {
	ServiceName string
	Base        *CommercialDB
	// AgreeProb is the per-block probability of copying the base answer
	// (default 0.96).
	AgreeProb float64
	Salt      uint64
}

// NewIPAPI returns the IP-API-style database emulator derived from a
// MaxMind-style base.
func NewIPAPI(base *CommercialDB) *DerivedDB {
	return &DerivedDB{ServiceName: "ip-api", Base: base, AgreeProb: 0.96, Salt: 0x69702d617069}
}

// Name implements Service.
func (db *DerivedDB) Name() string { return db.ServiceName }

// Locate implements Service.
func (db *DerivedDB) Locate(ip netsim.IP) (Location, bool) {
	base, ok := db.Base.Locate(ip)
	if !ok {
		return Location{}, false
	}
	d, isServer := db.Base.World.LocateIP(ip)
	if !isServer {
		return base, true // eyeballs: both are accurate
	}
	agree := db.AgreeProb
	if agree == 0 {
		agree = 0.96
	}
	if hashCoin(d.Block.Base, db.Salt) < agree {
		return base, true
	}
	// Disagreement: this database has its own (usually also wrong)
	// entry — a neighbor of the base answer keeps the continent mostly
	// intact, matching Table 3's higher continent agreement.
	return locOf(neighborCountry(base.Country, db.Salt^uint64(d.Block.Base))), true
}

// Name implements Service.
func (db *CommercialDB) Name() string { return db.ServiceName }

// Locate implements Service.
func (db *CommercialDB) Locate(ip netsim.IP) (Location, bool) {
	if d, ok := db.World.LocateIP(ip); ok {
		return db.locateServer(ip, d), true
	}
	if c := db.World.EyeballCountry(ip); c != "" {
		return locOf(c), true
	}
	return Location{}, false
}

func (db *CommercialDB) locateServer(ip netsim.IP, d netsim.Deployment) Location {
	hq := d.Org.HQ
	if d.Country == hq {
		return locOf(hq)
	}
	// The database keys on blocks, not single addresses: decide per
	// block base so a whole deployment is wrong together, like real
	// WHOIS-derived entries.
	coin := hashCoin(d.Block.Base, db.Salt)
	hqBias := db.HQBias
	if hqBias == 0 {
		hqBias = 0.87
	}
	noise := db.NeighborNoise
	switch {
	case coin < hqBias:
		return locOf(hq)
	case coin < hqBias+noise:
		return locOf(neighborCountry(d.Country, db.Salt^uint64(d.Block.Base)))
	default:
		return locOf(d.Country)
	}
}
