// Package chaostest is the one fault harness of the collector tier. It
// runs a three-shard durable cluster and a fan-in merge tier fully
// in-process, under a deterministic seeded fault schedule that spans
// every injection seam at once: the upload link (latency, connection
// resets, responses lost after the server applied them, truncated and
// corrupted bodies, 503 bursts), the fan-in pull link (the same faults
// against /v1/snapshot), each shard's filesystem (short WAL writes,
// fsync failures, torn checkpoint renames), and kill -9. The crash
// family is one site per shard, "cN/crash", drawn once per upload
// reaching the shard: when it fires the upload's connection drops, the
// shard's supervisor cuts the collector off its filesystem
// (chaos.FaultFS.Cut), so nothing its committer or WAL flusher still
// tries reaches the disk, closes it, and recovers a fresh collector on
// the same directory through a new FaultFS on the same sites. The
// supervisor restarts a shard the same way when a journal fault
// poisons it. Shard c0 journals with wal-sync=always, the others with
// interval.
//
// Every site fires on a fixed draw budget (chaos.Site.Hit), and the
// fault window stays open until every site has drawn one full window:
// the harness drives the fan-in's RefreshOnce itself until the fan-in
// sites are covered, and re-sends the study under faults while a link
// or crash site is short. So "every site fired" holds however fast or
// slow the run is. Then the injector heals, each shard gets one clean
// re-send (healing whatever acknowledged tail a crash could lose), and
// the merged cluster must serve every experiment artifact
// byte-identical to the batch study (internal/goldentest). Two fixed
// chaos seeds run as subtests; CHAOSTEST_REPORT names a file for the
// per-site counts and the per-restart recovery times.
package chaostest

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossborder/internal/chaos"
	"crossborder/internal/cluster"
	"crossborder/internal/goldentest"
	"crossborder/internal/ingest"
	"crossborder/internal/scenario"
)

// chaosSeeds are the two fixed fault schedules CI runs. Changing a
// seed changes which requests and writes get faulted, never whether
// the cluster converges.
var chaosSeeds = []uint64{0xC0FFEE, 0x0DECAF}

// Transport fault rates for the upload link and the fan-in pull link.
// Each site fires once per ⌈1/rate⌉ draws; the upload link draws
// hundreds of times per site in a run.
var clientFaults = chaos.TransportFaults{
	Latency: 0.05, MaxLatency: 5 * time.Millisecond,
	Reset: 0.05, LostResponse: 0.05,
	Truncate: 0.05, Corrupt: 0.05,
	Err503: 0.02, BurstLen: 2,
}

var faninFaults = chaos.TransportFaults{
	Latency: 0.05, MaxLatency: 5 * time.Millisecond,
	Reset: 0.06, LostResponse: 0.06,
	Truncate: 0.06, Corrupt: 0.06,
	Err503: 0.15, BurstLen: 2,
}

// fsFaults tears the write path of every shard. Short writes poison
// the WAL, and so do sync failures under wal-sync=always (the
// supervisor restarts the shard); under interval the best-effort
// flusher absorbs them. Rename failures tear checkpoint publishes,
// which stay transient because the WAL still covers everything.
// (Append draws ShortWrite twice per record, so even 0.004 poisons
// each shard several times per run, while RenameFail only sees the few
// dozen checkpoint publishes.)
var fsFaults = chaos.FSFaults{ShortWrite: 0.004, SyncFail: 0.05, RenameFail: 0.5}

// crashRate is the kill -9 rate per upload reaching a shard.
const crashRate = 0.01

var stub503 = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, "chaos: shard restarting", http.StatusServiceUnavailable)
})

// restart is one supervisor restart in the report.
type restart struct {
	Cause      string `json:"cause"` // "crash" or "poison"
	RecoveryMs int64  `json:"recovery_ms"`
}

// shardRig is one durable shard: a collector on a faulted filesystem
// behind an HTTP server whose handler the supervisor swaps across
// restarts — the in-process analogue of restarting a daemon behind a
// stable listen address.
type shardRig struct {
	node  string
	world *scenario.Scenario
	inj   *chaos.Injector
	cfg   ingest.Config
	crash *chaos.Site
	kill  chan struct{} // a fired crash, waiting for the supervisor
	h     atomic.Pointer[http.Handler]
	srv   *httptest.Server
	logf  func(format string, args ...any)

	mu       sync.Mutex
	c        *ingest.Collector
	fs       *chaos.FaultFS
	restarts []restart
}

func newShardRig(t *testing.T, world *scenario.Scenario, inj *chaos.Injector, node, walSync string) *shardRig {
	t.Helper()
	s := &shardRig{
		node:  node,
		world: world,
		inj:   inj,
		cfg: ingest.Config{
			EpochEvents: 1777, Workers: 2,
			DataDir: t.TempDir(), WALSync: walSync,
			WALSyncInterval: 20 * time.Millisecond,
			WALSegmentBytes: 256 << 10, // rotation under fire
			CheckpointBytes: 256 << 10, // frequent torn-rename draws
		},
		crash: inj.Site(node + "/crash"),
		kill:  make(chan struct{}, 1),
		logf:  t.Logf,
	}
	// Bring-up runs through the faulted filesystem too, so it can fail
	// (a torn fsync on the first segment create, say) and is retried
	// like a daemon that died on boot.
	s.start(nil)
	s.srv = httptest.NewServer(s)
	t.Cleanup(func() {
		s.srv.Close()
		s.collector().Close()
	})
	return s
}

// ServeHTTP draws the crash site for every upload: a fired crash drops
// the connection, as a killed process would, and hands the shard to
// its supervisor.
func (s *shardRig) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/upload" && s.crash.Hit(crashRate) {
		select {
		case s.kill <- struct{}{}:
		default: // already dying
		}
		panic(http.ErrAbortHandler)
	}
	(*s.h.Load()).ServeHTTP(w, r)
}

func (s *shardRig) set(h http.Handler) { s.h.Store(&h) }

func (s *shardRig) collector() *ingest.Collector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// start builds a collector over a fresh FaultFS on the shard's data
// dir and recovers it, retrying until a recovery survives the faults.
// It gives up, returning false, only when stop closes.
func (s *shardRig) start(stop <-chan struct{}) bool {
	for try := 1; ; try++ {
		cfg := s.cfg
		fs := chaos.NewFaultFS(s.inj, s.node, fsFaults, nil)
		cfg.FS = fs
		c := ingest.NewCollector(s.world, cfg)
		_, err := c.Recover()
		if err == nil {
			s.mu.Lock()
			s.c, s.fs = c, fs
			s.mu.Unlock()
			s.set(ingest.NewServer(c, ingest.WithLimits(ingest.Limits{
				MaxInFlight: 8, UploadTimeout: 10 * time.Second,
			})))
			return true
		}
		if try <= 3 || try%50 == 0 {
			s.logf("shard %s: recovery attempt %d: %v", s.node, try, err)
		}
		c.Close()
		select {
		case <-stop:
			return false
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// supervise restarts the shard whenever its crash site fires or a
// journal fault poisons it: swap in a 503 stub (uploads bounce and
// clients retry), cut the collector off its filesystem, close it, and
// recover a fresh one on the same data dir.
func (s *shardRig) supervise(stop <-chan struct{}) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		cause := "crash"
		select {
		case <-stop:
			return
		case <-s.kill:
		case <-tick.C:
			err := s.collector().JournalError()
			if err == nil {
				continue
			}
			cause = "poison"
			s.logf("shard %s: journal poisoned: %v", s.node, err)
		}
		s.set(stub503)
		s.mu.Lock()
		s.fs.Cut()
		c := s.c
		s.mu.Unlock()
		c.Close()
		start := time.Now()
		if !s.start(stop) {
			return
		}
		s.mu.Lock()
		s.restarts = append(s.restarts, restart{Cause: cause, RecoveryMs: time.Since(start).Milliseconds()})
		n := len(s.restarts)
		s.mu.Unlock()
		s.logf("shard %s: restart %d (%s) recovered in %v", s.node, n, cause, time.Since(start).Round(time.Millisecond))
	}
}

// chaosReport is the CHAOS_report.json artifact CI uploads: per-site
// fault counts and per-shard restarts for each seeded run.
type chaosReport struct {
	WorldSeed   int64      `json:"world_seed"`
	WorldScale  float64    `json:"world_scale"`
	Runs        []chaosRun `json:"runs"`
	GeneratedBy string     `json:"generated_by"`
}

type chaosRun struct {
	ChaosSeed    uint64               `json:"chaos_seed"`
	Restarts     map[string][]restart `json:"restarts"`
	UploadSecs   float64              `json:"upload_secs"`
	ConvergeSecs float64              `json:"converge_secs"`
	Sites        []chaos.SiteReport   `json:"sites"`
}

// short lists the sites, on the fan-in link or off it, that have not
// yet drawn one full window.
func short(inj *chaos.Injector, fanin bool) []string {
	var out []string
	for _, sr := range inj.Report() {
		if !sr.Covered() && strings.HasPrefix(sr.Site, "fanin/") == fanin {
			out = append(out, sr.Site)
		}
	}
	return out
}

// TestChaosClusterGoldenParity is the chaos acceptance test: a
// three-shard cluster plus fan-in runs an entire replayed study under
// the seeded fault schedule, heals, and must serve all experiment
// artifacts byte-identical to the uninterrupted batch study — while
// every fault site is proven to have drawn its window, and so fired,
// and every shard was killed at least twice.
func TestChaosClusterGoldenParity(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness is not short")
	}
	g := goldentest.Load(t)

	nodes := []string{"c0", "c1", "c2"}
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	parts := ring.Partition(slices.Sorted(maps.Keys(g.Events)))
	streams := make(map[string]map[int32][]ingest.Event, len(nodes))
	for _, n := range nodes {
		if len(parts[n]) == 0 {
			t.Fatalf("shard %s owns no users; scale the rig up", n)
		}
		streams[n] = make(map[int32][]ingest.Event, len(parts[n]))
		for _, uid := range parts[n] {
			streams[n][uid] = g.Events[uid]
		}
	}

	report := chaosReport{WorldSeed: goldentest.Seed, WorldScale: goldentest.Scale, GeneratedBy: "internal/ingest/chaostest"}

	for _, chaosSeed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed-%#x", chaosSeed), func(t *testing.T) {
			inj := chaos.New(chaosSeed)
			clientRT := chaos.NewTransport(inj, "client", clientFaults, nil)
			faninRT := chaos.NewTransport(inj, "fanin", faninFaults, nil)

			shards := make(map[string]*shardRig, len(nodes))
			for _, n := range nodes {
				walSync := "interval"
				if n == "c0" {
					walSync = "always"
				}
				shards[n] = newShardRig(t, g.World, inj, n, walSync)
			}

			// Record the run in the report even when an assertion below
			// fails — a diagnosable artifact beats an empty one.
			var uploadSecs, convergeSecs float64
			defer func() {
				run := chaosRun{
					ChaosSeed: chaosSeed, Restarts: map[string][]restart{},
					UploadSecs: uploadSecs, ConvergeSecs: convergeSecs, Sites: inj.Report(),
				}
				for _, s := range shards {
					s.mu.Lock()
					run.Restarts[s.node] = s.restarts
					s.mu.Unlock()
				}
				report.Runs = append(report.Runs, run)
			}()

			stop := make(chan struct{})
			defer close(stop)
			for _, s := range shards {
				go s.supervise(stop)
			}

			reg := cluster.NewRegistry(3*time.Second, 10*time.Second)
			beat := func() {
				for _, s := range shards {
					reg.Observe(cluster.Heartbeat{Node: s.node, Addr: s.srv.URL})
				}
			}
			fanin := &cluster.Fanin{
				World: g.World, Registry: reg, Shards: nodes, Workers: 2,
				HTTP:         &http.Client{Transport: faninRT, Timeout: 10 * time.Second},
				BreakerFails: 3, BreakerCooldown: 100 * time.Millisecond,
				StaleAfter: time.Second,
			}
			// Pull from the shards under fire the way mergerd's loop
			// would, and once the uploads are done, back to back until
			// every fan-in site has drawn its window.
			uploaded := make(chan struct{})
			faninDone := make(chan struct{})
			go func() {
				defer close(faninDone)
				for extra := 0; extra < 1000; {
					beat()
					fanin.RefreshOnce()
					select {
					case <-stop:
						return
					case <-uploaded:
						if len(short(inj, true)) == 0 {
							return
						}
						extra++
					case <-time.After(50 * time.Millisecond):
					}
				}
			}()

			// Replay the full study through the faulted link, one uploader
			// per shard, with retry budgets sized to outlast restarts and
			// 503 bursts.
			newClient := func(s *shardRig) *ingest.Client {
				return &ingest.Client{
					Base: s.srv.URL, Binary: true,
					HTTP: &http.Client{Transport: clientRT, Timeout: 10 * time.Second},
					Retry: &ingest.RetryPolicy{
						MaxAttempts: 1000, BaseDelay: 2 * time.Millisecond, MaxDelay: 100 * time.Millisecond,
					},
				}
			}
			replayAll := func(batch int) {
				var wg sync.WaitGroup
				errs := make(chan error, len(nodes))
				for _, n := range nodes {
					wg.Add(1)
					go func(s *shardRig) {
						defer wg.Done()
						if _, err := newClient(s).Replay(streams[s.node], batch, 1); err != nil {
							errs <- fmt.Errorf("shard %s: %w", s.node, err)
						}
					}(shards[n])
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
			}
			upStart := time.Now()
			// A re-send dedups, but it draws the link and crash sites
			// again; the filesystem sites draw from journal and
			// checkpoint volume, which the first pass covers.
			for pass := 1; ; pass++ {
				replayAll(128)
				left := short(inj, false)
				if len(left) == 0 {
					break
				}
				if pass == 3 {
					t.Fatalf("after %d upload passes these sites are still short of their window: %v", pass, left)
				}
				t.Logf("upload pass %d left %v short of their window; re-sending under faults", pass, left)
			}
			close(uploaded)
			<-faninDone
			uploadSecs = time.Since(upStart).Seconds()

			// Heal, then one clean re-send per shard: every record dedups
			// or fills a hole, exactly the client contract.
			inj.Heal()
			for _, n := range nodes {
				cl := newClient(shards[n])
				if _, err := cl.Replay(streams[n], 768, 1); err != nil {
					t.Fatalf("healing re-replay %s: %v", n, err)
				}
				if _, _, err := cl.Flush(); err != nil {
					t.Fatalf("flush %s: %v", n, err)
				}
			}

			// Converge the fan-in on the final shard epochs.
			convStart := time.Now()
			target := make(map[string]int, len(nodes))
			for _, n := range nodes {
				target[n] = shards[n].collector().Snapshot().Epoch()
			}
			deadline := time.Now().Add(60 * time.Second)
			for {
				beat()
				if _, err := fanin.RefreshOnce(); err != nil {
					t.Logf("converging refresh: %v", err)
				}
				ok := fanin.Ready() == nil
				for _, h := range fanin.Health() {
					if h.Epoch != target[h.Node] {
						ok = false
					}
				}
				if ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("fan-in never converged; health %+v target %v", fanin.Health(), target)
				}
				time.Sleep(10 * time.Millisecond)
			}
			convergeSecs = time.Since(convStart).Seconds()

			qsrv := httptest.NewServer(ingest.NewQueryServer(fanin.Snapshot, fanin.Ready))
			defer qsrv.Close()
			g.Check(t, &ingest.Client{Base: qsrv.URL}, fmt.Sprintf("seed %#x", chaosSeed))

			// The schedule must have exercised every seam: a site that
			// never drew its window is a dead injection point, not a
			// passing test.
			sites := inj.Report()
			for _, sr := range sites {
				if !sr.Covered() || sr.Fired == 0 {
					t.Errorf("fault site %s drew %d of its %d-draw window and fired %d times", sr.Site, sr.Draws, sr.Window, sr.Fired)
				}
			}
			restarts := 0
			for _, s := range shards {
				s.mu.Lock()
				crashes := 0
				for _, r := range s.restarts {
					if r.Cause == "crash" {
						crashes++
					}
				}
				restarts += len(s.restarts)
				s.mu.Unlock()
				if crashes < 2 {
					t.Errorf("shard %s was killed %d times, want at least 2", s.node, crashes)
				}
			}
			t.Logf("seed %#x: %d shard restarts, upload %.1fs, converge %.2fs, %d fault sites live",
				chaosSeed, restarts, uploadSecs, convergeSecs, len(sites))
		})
	}

	if path := os.Getenv("CHAOSTEST_REPORT"); path != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", path, err)
		}
		t.Logf("chaos report written to %s", path)
	}
}
