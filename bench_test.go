// Benchmarks: one per table and figure of the paper, plus substrate
// micro-benchmarks and ablation benches isolating each methodology
// stage. Each experiment bench reports the headline quantity it
// regenerates via b.ReportMetric, so `go test -bench` output doubles as
// a compact reproduction summary.
package crossborder

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"crossborder/internal/blocklist"
	"crossborder/internal/classify"
	"crossborder/internal/cluster"
	"crossborder/internal/core"
	"crossborder/internal/experiments"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/ingest"
	"crossborder/internal/netflow"
	"crossborder/internal/netsim"
	"crossborder/internal/scenario"
	"crossborder/internal/scenario/pack"
	"crossborder/internal/webgraph"
)

// benchSuite is built once: benchmarks measure experiment aggregation,
// not world construction (which has its own bench below).
var (
	benchOnce sync.Once
	benchVal  *experiments.Suite
)

func benchSuiteGet(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchVal = experiments.NewSuite(scenario.Build(scenario.Params{
			Seed: 1, Scale: 0.1, VisitsPerUser: 60,
		}))
		// The three geolocation joins run in setup so each benchmark
		// measures its aggregation, not the first join.
		benchVal.Precompute()
	})
	return benchVal
}

func BenchmarkScenarioBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scenario.Build(scenario.Params{Seed: int64(i + 1), Scale: 0.02, VisitsPerUser: 10})
	}
}

// BenchmarkScenarioBuildSequential is the one-worker baseline the
// parallel pipeline is measured against; by the stream-splitting
// contract it produces the identical Dataset.
func BenchmarkScenarioBuildSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scenario.Build(scenario.Params{Seed: int64(i + 1), Scale: 0.02, VisitsPerUser: 10, Workers: 1})
	}
}

func BenchmarkTable1Dataset(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Table1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Table1()
	}
	b.ReportMetric(float64(r.Stats.ThirdPartyReqs), "3p-requests")
}

func BenchmarkTable2Classification(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Table2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Table2()
	}
	b.ReportMetric(r.SemiToABPRatio(), "semi/abp-ratio")
	b.ReportMetric(100*r.Acc.Recall(), "recall-pct")
}

func BenchmarkFig2RequestsCDF(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Fig2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Fig2()
	}
	b.ReportMetric(100*r.TrackingDominatesShare, "tracking-dominates-pct")
}

func BenchmarkFig3TopTLDs(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Fig3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Fig3()
	}
	b.ReportMetric(float64(len(r.Top)), "tlds")
}

func BenchmarkFig4DomainsPerIP(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Fig4Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Fig4()
	}
	b.ReportMetric(100*r.Sharing.SingleTLDRequestShare(), "dedicated-req-pct")
	b.ReportMetric(r.ExtraSharePct(), "pdns-extra-pct")
}

func BenchmarkFig5SharedIPs(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Fig5Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Fig5()
	}
	b.ReportMetric(float64(len(r.SharedIPs)), "shared-ips")
}

func BenchmarkTable3GeoAgreement(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Table3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Table3()
	}
	b.ReportMetric(r.IPAPIvMaxMind.Country, "commercial-agree-pct")
	b.ReportMetric(r.MaxMindvIPMap.Country, "maxmind-ipmap-agree-pct")
}

func BenchmarkTable4MaxMindErrors(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Table4Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Table4()
	}
	b.ReportMetric(r.Rows[0].WrongCountryPct(), "google-wrong-country-pct")
}

func BenchmarkFig6ContinentSankey(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Fig6Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Fig6()
	}
	b.ReportMetric(r.Confinement[geodata.EU28], "eu28-confinement-pct")
}

func BenchmarkFig7GeoComparison(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Fig7Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Fig7()
	}
	b.ReportMetric(r.IPMapEU28(), "ipmap-eu28-pct")
	b.ReportMetric(r.MaxMindEU28(), "maxmind-eu28-pct")
}

func BenchmarkFig8CountrySankey(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Fig8Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Fig8()
	}
	if v, ok := r.NationalConfinement("GB"); ok {
		b.ReportMetric(v, "uk-national-pct")
	}
}

// freshSuite wraps the bench scenario and its precomputed joins in a
// new Suite, so a bench of a Suite-cached table times the kernel, not
// a cache hit.
func freshSuite(su *experiments.Suite) *experiments.Suite {
	return experiments.NewSuiteSeeded(su.S, su.TruthAnalysis(), su.IPMapAnalysis(), su.MaxMindAnalysis())
}

// BenchmarkTable5Localization times the shared locality engine: a
// fresh Suite builds it and evaluates Tables 5 and 6 on each iteration.
func BenchmarkTable5Localization(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Table5Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = freshSuite(su).Table5()
	}
	b.ReportMetric(r.Rows[2].InCountry-r.Default.InCountry, "tld-improvement-pts")
}

// BenchmarkTable6CloudMigration is BenchmarkTable5Localization entered
// through Table 6: the same engine build, on a fresh Suite each time.
func BenchmarkTable6CloudMigration(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Table6Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = freshSuite(su).Table6()
	}
	if gr, ok := r.Row("GR"); ok {
		b.ReportMetric(gr.MigrationOverTLD, "greece-migration-pts")
	}
}

func BenchmarkFig9SensitiveShare(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Fig9Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Fig9()
	}
	b.ReportMetric(r.Report.PctOfAll(), "sensitive-pct")
}

func BenchmarkFig10SensitiveDest(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Fig10Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Fig10()
	}
	b.ReportMetric(r.OverallEU28Share(), "sensitive-eu28-pct")
}

func BenchmarkFig11SensitiveCountry(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Fig11Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Fig11()
	}
	b.ReportMetric(float64(len(r.Leaks)), "countries")
}

func BenchmarkTable7ISPProfiles(b *testing.B) {
	su := benchSuiteGet(b)
	for i := 0; i < b.N; i++ {
		_ = su.Table7()
	}
}

func BenchmarkTable8ISPConfinement(b *testing.B) {
	su := benchSuiteGet(b)
	var r experiments.Table8Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Table8()
	}
	if rep, ok := r.Report("DE-Broadband", experiments.SnapshotDates()[1]); ok {
		b.ReportMetric(rep.EU28, "de-broadband-eu28-pct")
	}
}

func BenchmarkFig12ISPTopCountries(b *testing.B) {
	su := benchSuiteGet(b)
	t8 := su.Table8()
	var r experiments.Fig12Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = su.Fig12(t8)
	}
	b.ReportMetric(r.NationalShare("DE-Broadband", "DE"), "de-national-pct")
}

func BenchmarkTable9RelatedWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderTable9()
	}
}

// --- Ablation benches ---

// BenchmarkAblationClassifierABPOnly measures how much tracking the
// filter lists alone catch versus the full multi-stage classifier.
func BenchmarkAblationClassifierABPOnly(b *testing.B) {
	su := benchSuiteGet(b)
	ds := su.S.Dataset
	var abpOnly, full int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		abpOnly, full = 0, 0
		for ci := 0; ci < ds.Store.NumChunks(); ci++ {
			for _, cls := range ds.Store.Classes(ci) {
				if cls == classify.ClassABP {
					abpOnly++
				}
				if cls.IsTracking() {
					full++
				}
			}
		}
	}
	b.ReportMetric(100*float64(abpOnly)/float64(full), "abp-share-of-full-pct")
}

// BenchmarkAblationGeolocation quantifies how the geolocation service
// choice moves the headline EU28 confinement.
func BenchmarkAblationGeolocation(b *testing.B) {
	su := benchSuiteGet(b)
	var truthEU, mmEU, ipmapEU float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, truthEU, _, _ = su.TruthAnalysis().RegionConfinement(core.EU28Origin)
		_, mmEU, _, _ = su.MaxMindAnalysis().RegionConfinement(core.EU28Origin)
		_, ipmapEU, _, _ = su.IPMapAnalysis().RegionConfinement(core.EU28Origin)
	}
	b.ReportMetric(truthEU, "truth-eu28-pct")
	b.ReportMetric(ipmapEU, "ipmap-eu28-pct")
	b.ReportMetric(mmEU, "maxmind-eu28-pct")
}

// BenchmarkAblationPDNS measures the inventory with and without passive
// DNS completion.
func BenchmarkAblationPDNS(b *testing.B) {
	su := benchSuiteGet(b)
	inv := su.S.Inventory
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = inv.NumObserved()
	}
	b.ReportMetric(float64(inv.NumObserved()), "observed-ips")
	b.ReportMetric(float64(inv.NumExtra()), "pdns-only-ips")
}

// BenchmarkAblationDNSPolicy compares confinement under the org's real
// policy mix with an all-

// HQ counterfactual resolved over the same zones.
func BenchmarkAblationDNSPolicy(b *testing.B) {
	su := benchSuiteGet(b)
	s := su.S
	rng := rand.New(rand.NewSource(7))
	day := time.Date(2017, 10, 15, 0, 0, 0, 0, time.UTC)
	zones := s.DNS.Zones()
	if len(zones) > 400 {
		zones = zones[:400]
	}
	b.ResetTimer()
	var inDE int
	for i := 0; i < b.N; i++ {
		inDE = 0
		for _, z := range zones {
			ip, err := s.DNS.Resolve(rng, z, "DE", day)
			if err != nil {
				continue
			}
			if loc, ok := s.Truth.Locate(ip); ok && loc.Country == "DE" {
				inDE++
			}
		}
	}
	b.ReportMetric(100*float64(inDE)/float64(len(zones)), "de-local-zone-pct")
}

// --- Substrate micro-benchmarks ---

func BenchmarkV9EncodeDecode(b *testing.B) {
	enc := &netflow.Encoder{SourceID: 1, Boot: time.Now().Add(-time.Hour)}
	dec := netflow.NewDecoder()
	now := time.Now()
	if _, err := dec.Decode(enc.EncodeTemplate(now)); err != nil {
		b.Fatal(err)
	}
	recs := make([]netflow.Record, 256)
	for i := range recs {
		recs[i] = netflow.Record{
			First: now, Last: now, InputIf: 1, Proto: netflow.ProtoTCP,
			SrcIP: 0x60000000 + netsim.IP(i), DstIP: 0x10000000, DstPort: 443,
			Packets: 10, Bytes: 1000,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, n := enc.EncodeData(now, recs)
		got, err := dec.Decode(pkt)
		if err != nil || len(got) != n {
			b.Fatal("round trip failed")
		}
	}
	b.SetBytes(int64(len(recs) * 34))
}

func BenchmarkBlocklistMatch(b *testing.B) {
	g := webgraph.Build(rand.New(rand.NewSource(1)), webgraph.Config{}.Scale(0.1))
	el, ep := blocklist.Generate(rand.New(rand.NewSource(2)), g, blocklist.Coverage{})
	l1, _ := blocklist.Parse("easylist", el)
	l2, _ := blocklist.Parse("easyprivacy", ep)
	reqs := []blocklist.Request{
		{URL: "https://pagead2.googlesyndication.com/adserv/slot?sz=1", PageDomain: "site1.com"},
		{URL: "https://static.cdn001.com/lib/main.js", PageDomain: "site1.com"},
		{URL: "https://sync.dmp0001.com/cookiesync?uid=5", PageDomain: "site2.com"},
		{URL: "https://www.google-analytics.com/collect?tid=1", PageDomain: "site3.com"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := reqs[i%len(reqs)]
		blocklist.MatchAny(q, l1, l2)
	}
}

func BenchmarkIPMapLocate(b *testing.B) {
	su := benchSuiteGet(b)
	ips := su.S.Inventory.IPs()
	if len(ips) == 0 {
		b.Skip("no IPs")
	}
	// Warm the cache first so the bench measures steady-state lookups.
	for _, ip := range ips {
		su.S.IPMap.Locate(ip)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		su.S.IPMap.Locate(ips[i%len(ips)])
	}
}

// benchIngestCapture builds the shared ingest-bench fixture: the world
// and the pre-encoded binary upload batches of a scale-0.02 capture.
var benchIngestOnce sync.Once
var benchIngestWorld *scenario.Scenario
var benchIngestBatches [][]byte
var benchIngestTotal int

func benchIngestCapture(b *testing.B) (*scenario.Scenario, [][]byte, int) {
	b.Helper()
	benchIngestOnce.Do(func() {
		benchIngestWorld = scenario.BuildWorld(scenario.Params{Seed: 1, Scale: 0.02, VisitsPerUser: 10})
		events := ingest.RecordSimulation(benchIngestWorld, 10, 0)
		users := make([]int32, 0, len(events))
		for uid, evs := range events {
			users = append(users, uid)
			benchIngestTotal += len(evs)
		}
		sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
		for _, uid := range users {
			stream := events[uid]
			for off := 0; off < len(stream); off += 512 {
				hi := off + 512
				if hi > len(stream) {
					hi = len(stream)
				}
				benchIngestBatches = append(benchIngestBatches, ingest.EncodeBinary(ingest.Batch{
					User: uid, Seq: uint64(off), Events: stream[off:hi],
				}))
			}
		}
	})
	return benchIngestWorld, benchIngestBatches, benchIngestTotal
}

// benchIngestRun replays the captured raw batches through IngestBinary
// (the upload handler's path) into one collector per op. With a DataDir
// in cfg the run is durable — WAL journaling on every upload;
// checkpoint additionally writes the epoch checkpoint on the final
// flush (the full write path a durable collectd pays on /v1/flush).
func benchIngestRun(b *testing.B, cfg ingest.Config, checkpoint bool) {
	world, batches, total := benchIngestCapture(b)
	root := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := cfg
		if cfg.DataDir != "" {
			run.DataDir = filepath.Join(root, fmt.Sprintf("op%d", i))
		}
		c := ingest.NewCollector(world, run)
		if run.DataDir != "" {
			if _, err := c.Recover(); err != nil {
				b.Fatal(err)
			}
		}
		for _, raw := range batches {
			if _, err := c.IngestBinary(raw); err != nil {
				b.Fatal(err)
			}
		}
		if checkpoint {
			if _, err := c.FlushCheckpoint(); err != nil {
				b.Fatal(err)
			}
		} else {
			c.Flush()
		}
		c.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(total), "events/op")
}

// BenchmarkIngestThroughput drives the live collection pipeline end to
// end in-process through IngestBinary, the server's path: in-place
// batch validation -> sequence dedup -> (epoch committer) frame decode
// -> sharded stage-1 classification -> user-ordered merge into the
// columnar store -> incremental fixpoint -> snapshot publish. One op replays the whole captured event stream and flushes;
// events/sec is the headline serving metric.
func BenchmarkIngestThroughput(b *testing.B) {
	benchIngestRun(b, ingest.Config{EpochEvents: 1 << 14}, false)
}

// BenchmarkIngestThroughputWAL is the durable variant: the same replay
// with write-ahead journaling in the loop. "interval" is the default
// deployment policy; "always" pays one fsync per upload batch and is
// required to stay within 2x of the memory baseline; "checkpoint" adds
// the epoch-checkpoint write (block segment of the newly sealed chunks
// + checkpoint file, each atomic rename + fsync) a durable /v1/flush
// performs on top of interval journaling.
func BenchmarkIngestThroughputWAL(b *testing.B) {
	for _, bc := range []struct {
		name string
		pol  string
		ckpt bool
	}{
		{"interval", "interval", false},
		{"always", "always", false},
		{"checkpoint", "interval", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchIngestRun(b, ingest.Config{EpochEvents: 1 << 14, DataDir: "x", WALSync: bc.pol}, bc.ckpt)
		})
	}
}

// BenchmarkIngestThroughputHTTP replays the captured upload batches
// through the collector's HTTP handler itself (request construction,
// routing, decode, ingest, JSON ack — no sockets, so the numbers
// isolate handler cost from kernel networking). "bare" is the handler
// with no limits; "guarded" runs the full overload-protection path a
// production collectd enables — admission semaphore, MaxBytesReader
// body cap, per-request read/write deadlines. The guarded variant is
// the no-fault tax of the protection layer and is pinned within 5% of
// bare in BENCH_baseline.json: protection must be free until it fires.
// Each side replays once untimed before its timer starts, so the side
// that runs first does not pay alone for warming the heap and caches.
func BenchmarkIngestThroughputHTTP(b *testing.B) {
	world, batches, total := benchIngestCapture(b)
	for _, bc := range []struct {
		name string
		opts []ingest.ServerOption
	}{
		{"bare", nil},
		{"guarded", []ingest.ServerOption{ingest.WithLimits(ingest.Limits{
			MaxInFlight:    64,
			MaxUploadBytes: 64 << 20,
			UploadTimeout:  30 * time.Second,
		})}},
	} {
		replay := func(b *testing.B) {
			c := ingest.NewCollector(world, ingest.Config{EpochEvents: 1 << 14})
			h := ingest.NewServer(c, bc.opts...)
			for _, raw := range batches {
				req := httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(raw))
				req.Header.Set("Content-Type", ingest.ContentTypeBinary)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
				}
			}
			c.Flush()
			c.Close()
		}
		b.Run(bc.name, func(b *testing.B) {
			replay(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replay(b)
			}
			b.StopTimer()
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(total), "events/op")
		})
	}
}

// BenchmarkClusterIngest replays the captured stream into an n-shard
// durable partitioned cluster — in-process collectors, users assigned
// by the same consistent-hash ring collectd deployments use, WAL
// journaling with byte-cadenced auto-checkpoints — and reports
// aggregate events/sec. The in-epoch pipeline is incremental (O(new
// events)). Checkpoints write each sealed chunk block once, so at a
// fixed per-node durability budget (CheckpointBytes of uncovered WAL)
// a checkpoint's cost follows the chunks sealed since the last one plus
// the per-checkpoint state (class bytes, interner, per-user sequence
// numbers), which a single collector carries for the whole store and
// each of eight shards for a ~1/8 slice. The shards run sequentially
// here, so any speedup is pure work reduction — one-core honest;
// multicore deployments multiply it. Both sizes carry absolute pins in
// BENCH_baseline.json.
func BenchmarkClusterIngest(b *testing.B) {
	world, batches, total := benchIngestCapture(b)
	root := b.TempDir()
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			nodes := make([]string, n)
			for i := range nodes {
				nodes[i] = fmt.Sprintf("c%d", i)
			}
			ring, err := cluster.NewRing(nodes, 0)
			if err != nil {
				b.Fatal(err)
			}
			idx := make(map[string]int, n)
			for i, node := range nodes {
				idx[node] = i
			}
			// Route each pre-encoded upload batch to its ring owner
			// outside the timer; the op measures ingest, not routing.
			parts := make([][][]byte, n)
			for _, raw := range batches {
				bt, err := ingest.DecodeBinary(raw)
				if err != nil {
					b.Fatal(err)
				}
				s := idx[ring.Owner(bt.User)]
				parts[s] = append(parts[s], raw)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < n; s++ {
					dir := filepath.Join(root, fmt.Sprintf("n%d-s%d", n, s))
					c := ingest.NewCollector(world, ingest.Config{
						EpochEvents:     1 << 12,
						DataDir:         dir,
						WALSync:         "none",
						CheckpointBytes: 32 << 10,
					})
					if _, err := c.Recover(); err != nil {
						b.Fatal(err)
					}
					for _, raw := range parts[s] {
						if _, err := c.IngestBinary(raw); err != nil {
							b.Fatal(err)
						}
					}
					c.Flush()
					c.Close()
					// Each op starts from an empty data dir: the cost
					// measured is one full durable replay, not recovery
					// over the previous op's artifacts (and the temp
					// volume stays flat across iterations).
					b.StopTimer()
					if err := os.RemoveAll(dir); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(total), "events/op")
		})
	}
}

func BenchmarkCoreAnalyze(b *testing.B) {
	su := benchSuiteGet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Analyze(su.S.Dataset, su.S.Truth)
	}
	b.ReportMetric(float64(su.S.Dataset.Len()), "rows")
}

// BenchmarkFlowJoin times the three flow maps (truth, IPmap, MaxMind)
// over the wide bench store three ways: one shared core.Join, and three
// concurrent single-service Analyze calls, both with the IPmap cache
// warm (CI gates shared against per-service as a same-run ratio); and
// cold, one shared core.Join with a fresh IPMap per op, so every
// tracking IP is measured: the join a freshly built world pays.
func BenchmarkFlowJoin(b *testing.B) {
	su := benchSuiteGet(b)
	ds, svcs := su.S.Dataset, su.S.FlowServices()
	b.Run("cold", func(b *testing.B) {
		mesh := geo.DefaultMesh()
		for i := 0; i < b.N; i++ {
			core.Join(ds, []geo.Service{su.S.Truth, geo.NewIPMap(su.S.World, mesh), su.S.MaxMind})
		}
	})
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Join(ds, svcs)
		}
	})
	b.Run("per-service", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for _, svc := range svcs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					core.Analyze(ds, svc)
				}()
			}
			wg.Wait()
		}
	})
}

// BenchmarkSweepCell measures one cell of a scenario-pack sweep grid:
// a full packed build (here the routing pack, whose world hook
// re-registers every tracking zone) plus the cross-study Summarize
// pass — the unit of work cmd/sweep schedules per (seed, pack).
func BenchmarkSweepCell(b *testing.B) {
	params, err := pack.Params(scenario.Params{Seed: 1, Scale: 0.02, VisitsPerUser: 10}, "routing")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sum scenario.Summary
	for i := 0; i < b.N; i++ {
		sum = scenario.Summarize(scenario.Build(params))
	}
	b.ReportMetric(float64(sum.Flows), "flows")
}
