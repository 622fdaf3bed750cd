package dns

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"time"

	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// TestPlanMatchesResolve is the Plan contract: for every policy, spill
// setting and GeoMapping shape, at the edges of the activity windows
// and outside them, a Plan's Picks return exactly Resolve's answers
// and errors, log the same resolutions, and consume the same draws —
// two rngs from one seed agree on their next Int63 afterwards.
func TestPlanMatchesResolve(t *testing.T) {
	policies := []Policy{PolicyNearest, PolicyContinent, PolicyHQ, PolicyRandom, PolicyWeighted, PolicyLatency, PolicyFailover}
	day := 24 * time.Hour
	// Staggered windows: bindings join and leave, so the active set
	// differs between the probe times.
	servers := []ServerIP{
		{IP: 0x0a000001, Country: "DE", Weight: 3, From: t0, To: tEnd},
		{IP: 0x0a000002, Country: "NL", Weight: 1, From: t0, To: mid},
		{IP: 0x0a000003, Country: "FR", From: mid, To: tEnd},
		{IP: 0x0a000004, Country: "US", Weight: 5, From: t0, To: tEnd},
		{IP: 0x0a000005, Country: "BR", Weight: 2, From: t0.Add(10 * day), To: tEnd},
		{IP: 0x0a000006, Country: "JP", Weight: 5, From: t0, To: mid},
		{IP: 0x0a000007, Country: "DE", Weight: 1, From: mid, To: tEnd.Add(-day)},
	}
	times := []time.Time{
		t0, mid, tEnd, tEnd.Add(-day), t0.Add(10 * day), // window edges
		t0.Add(-time.Hour), tEnd.Add(time.Hour), // outside every window
	}
	users := []geodata.Country{"DE", "NL", "FR", "CY", "US", "BR", "CN", "ZZ"}
	hashed := func(fqdn string, user geodata.Country, at time.Time) bool {
		h := fnv.New32a()
		fmt.Fprintf(h, "%s|%s|%d", fqdn, user, at.Unix()/86400)
		return h.Sum32()%2 == 0
	}
	geoMappings := map[string]func(string, geodata.Country, time.Time) bool{
		"nil":    nil,
		"true":   func(string, geodata.Country, time.Time) bool { return true },
		"false":  func(string, geodata.Country, time.Time) bool { return false },
		"hashed": hashed,
	}
	seed := int64(0)
	for _, policy := range policies {
		for _, spill := range []float64{0, 0.08} {
			for gmName, gm := range geoMappings {
				var logged []Resolution
				s := NewServer(func(r Resolution) { logged = append(logged, r) })
				s.Register("z.example", "z", policy, time.Minute, servers)
				s.Spill, s.GeoMapping = spill, gm
				s.Freeze()
				for _, fqdn := range []string{"z.example", "nx.example"} {
					for _, at := range times {
						for _, user := range users {
							seed++
							where := fmt.Sprintf("%s spill=%v geo=%s %s %s at %s", policy, spill, gmName, fqdn, user, at.Format(time.RFC3339))
							ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
							plan := s.Plan(fqdn, user, at)
							logged = logged[:0]
							var want, got []netsim.IP
							var wantErr, gotErr error
							for i := 0; i < 40; i++ {
								ip, err := s.Resolve(ra, fqdn, user, at)
								want, wantErr = append(want, ip), err
							}
							resolveLog := append([]Resolution(nil), logged...)
							logged = logged[:0]
							for i := 0; i < 40; i++ {
								ip, err := plan.Pick(rb)
								got, gotErr = append(got, ip), err
							}
							if gotErr != wantErr {
								t.Fatalf("%s: Pick error %v, Resolve error %v", where, gotErr, wantErr)
							}
							if !slices.Equal(got, want) {
								t.Fatalf("%s:\n Pick    %v\n Resolve %v", where, got, want)
							}
							if !slices.Equal(logged, resolveLog) {
								t.Fatalf("%s: Pick logged %d resolutions, Resolve %d", where, len(logged), len(resolveLog))
							}
							if a, b := ra.Int63(), rb.Int63(); a != b {
								t.Fatalf("%s: Resolve and Pick consumed different draws", where)
							}
						}
					}
				}
			}
		}
	}
}

// TestResolveDoesNotAllocate pins Resolve's hot path at zero
// allocations for every policy, spill included.
func TestResolveDoesNotAllocate(t *testing.T) {
	for _, policy := range []Policy{PolicyNearest, PolicyContinent, PolicyHQ, PolicyRandom, PolicyWeighted, PolicyLatency, PolicyFailover} {
		s := NewServer(nil)
		s.Register("z.example", "z", policy, time.Minute, []ServerIP{
			sv(0x0a000001, "DE"), sv(0x0a000002, "NL"), sv(0x0a000003, "US"),
		})
		s.Spill = 0.5
		s.Freeze()
		rng := rand.New(rand.NewSource(1))
		if n := testing.AllocsPerRun(200, func() {
			if _, err := s.Resolve(rng, "z.example", "FR", mid); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Resolve allocates %.1f times per call", policy, n)
		}
	}
}
