// ISP monitor: the paper's §9 vision of continuous GDPR-compliance
// monitoring, built on the §7 methodology. The example compiles the
// tracker IP list once from the extension study, then scans synthesized
// daily ISP snapshots around the GDPR implementation date (May 25, 2018)
// and reports the EU28 confinement trend per ISP — the Table 8 pipeline
// as a monitoring loop.
//
// Run with:
//
//	go run ./examples/isp-monitor
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"crossborder"
	"crossborder/internal/core"
	"crossborder/internal/geodata"
	"crossborder/internal/netflow"
)

func main() {
	scale := flag.Float64("scale", 0.06, "study scale")
	weeks := flag.Int("weeks", 8, "weekly snapshots around the GDPR date")
	flag.Parse()

	study, err := crossborder.New(context.Background(),
		crossborder.WithSeed(1),
		crossborder.WithScale(*scale),
		crossborder.WithVisitsPerUser(60))
	if err != nil {
		log.Fatal(err)
	}
	s := study.Scenario()
	fqdns := s.FQDNWeights()

	gdprDay := time.Date(2018, 5, 25, 0, 0, 0, 0, time.UTC)
	start := gdprDay.AddDate(0, 0, -7*(*weeks)/2)

	fmt.Printf("%-12s", "week of")
	for _, isp := range netflow.DefaultISPs() {
		fmt.Printf("  %12s", isp.Name)
	}
	fmt.Println("   (EU28 confinement %)")

	for w := 0; w < *weeks; w++ {
		day := start.AddDate(0, 0, 7*w)
		marker := " "
		if day.Before(gdprDay) && !day.AddDate(0, 0, 7).Before(gdprDay) {
			marker = "*" // GDPR implementation falls in this week
		}
		fmt.Printf("%-11s%s", day.Format("2006-01-02"), marker)
		// Weeks share no dates, hence no plans: one Synthesizer per week
		// keeps its plan memo from growing with -weeks.
		synth := &netflow.Synthesizer{Resolver: s.DNS}
		for i, isp := range netflow.DefaultISPs() {
			rng := rand.New(rand.NewSource(int64(w*10 + i)))
			snap := synth.Synthesize(rng, isp, day, fqdns)
			a := core.NewAnalysis()
			for ip, n := range snap.PerIP {
				if !s.Inventory.IsTrackingIP(ip, day) {
					continue
				}
				if loc, ok := s.IPMap.Locate(ip); ok {
					a.Add(isp.Country, loc.Country, n)
				}
			}
			_, inEU, _, _ := a.RegionConfinement(func(geodata.Country) bool { return true })
			fmt.Printf("  %11.1f%%", inEU)
		}
		fmt.Println()
	}
	fmt.Println("\n(*) the GDPR implementation date (2018-05-25) falls in this week.")
	fmt.Println("The paper's finding: confinement was already high before the date and")
	fmt.Println("did not change dramatically across it (Table 8).")
}
