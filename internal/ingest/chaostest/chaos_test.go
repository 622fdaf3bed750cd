// Package chaostest is the cluster-level chaos harness: it runs a
// three-shard durable cluster and a fan-in merge tier fully in-process,
// under a deterministic seeded fault schedule that spans every
// injection seam at once — the upload link (latency, connection resets,
// responses lost after the server applied them, truncated and corrupted
// bodies, 503 bursts), the fan-in pull link (same faults against
// /v1/snapshot), and each shard's filesystem (short WAL writes, fsync
// failures, torn checkpoint renames). A supervisor per shard restarts
// its collector whenever a journal fault poisons it, the retrying
// clients ride through everything, and after the injector heals the
// harness asserts the merged cluster serves every experiment artifact
// byte-identical to the uninterrupted batch study. Two fixed chaos
// seeds run as subtests; each asserts every fault site actually fired,
// so the schedule can't silently rot into a no-op.
package chaostest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossborder"
	"crossborder/internal/chaos"
	"crossborder/internal/cluster"
	"crossborder/internal/ingest"
	"crossborder/internal/scenario"
)

const (
	worldSeed   = 1
	worldScale  = 0.05
	worldVisits = 40
)

// chaosSeeds are the two fixed fault schedules CI runs. Changing a
// seed changes which requests and writes get faulted, never whether
// the cluster converges.
var chaosSeeds = []uint64{0xC0FFEE, 0x0DECAF}

// transport fault rates for the upload link and the fan-in pull link.
// High enough that every site fires hundreds of draws into a run (the
// harness asserts it), low enough that forward progress dominates.
var clientFaults = chaos.TransportFaults{
	Latency: 0.05, MaxLatency: 5 * time.Millisecond,
	Reset: 0.05, LostResponse: 0.05,
	Truncate: 0.05, Corrupt: 0.05,
	Err503: 0.02, BurstLen: 2,
}

// The fan-in link sees far fewer requests than the upload link (one
// poll per shard every 400ms, a few dozen in a run), so its latency and
// 503 rates are much higher to keep those sites hot within a run's draw
// budget: at 0.05, seed 0x0DECAF's latency stream first fires on its
// 29th draw, which a fast run does not reach.
var faninFaults = chaos.TransportFaults{
	Latency: 0.15, MaxLatency: 5 * time.Millisecond,
	Reset: 0.06, LostResponse: 0.06,
	Truncate: 0.06, Corrupt: 0.06,
	Err503: 0.15, BurstLen: 2,
}

// fsFaults tears the write path of every shard. Short writes poison
// the WAL (the supervisor rebuilds and recovers); sync failures are
// absorbed by the interval policy's best-effort flusher; rename
// failures tear checkpoint publishes, which stay transient because the
// WAL still covers everything.
// (Rates are calibrated to the draw volume: Append draws ShortWrite
// twice per record, so even 0.004 poisons each shard several times per
// run, while RenameFail only sees the ~30 checkpoint publishes.)
var fsFaults = chaos.FSFaults{ShortWrite: 0.004, SyncFail: 0.05, RenameFail: 0.5}

// swapHandler lets the supervisor replace a shard's handler atomically
// while its httptest server (and address) stays up — the in-process
// analogue of restarting a daemon behind a stable listen address.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

var stub503 = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, "chaos: shard restarting", http.StatusServiceUnavailable)
})

// shardRig is one durable shard: collector on a faulted filesystem,
// HTTP server with a swappable handler, and the supervisor bookkeeping.
type shardRig struct {
	node string
	cfg  ingest.Config
	h    *swapHandler
	srv  *httptest.Server
	logf func(format string, args ...any)

	mu         sync.Mutex
	c          *ingest.Collector
	restarts   int
	recoveryMs []int64
}

func serverFor(c *ingest.Collector) http.Handler {
	return ingest.NewServer(c, ingest.WithLimits(ingest.Limits{
		MaxInFlight: 8, UploadTimeout: 10 * time.Second,
	}))
}

func newShardRig(t *testing.T, world *scenario.Scenario, node string, fs chaos.FS) *shardRig {
	t.Helper()
	s := &shardRig{
		node: node,
		logf: t.Logf,
		cfg: ingest.Config{
			EpochEvents: 1777, Workers: 2,
			DataDir: t.TempDir(), WALSync: "interval",
			WALSyncInterval: 20 * time.Millisecond,
			WALSegmentBytes: 256 << 10, // rotation under fire
			CheckpointBytes: 256 << 10, // frequent torn-rename draws
			FS:              fs,
		},
		h: &swapHandler{},
	}
	// Initial bring-up runs through the faulted filesystem too, so it
	// can fail (a torn fsync on the first segment create, say); retry
	// like the supervisor would restart a daemon that died on boot.
	var c *ingest.Collector
	for try := 1; ; try++ {
		c = ingest.NewCollector(world, s.cfg)
		if _, err := c.Recover(); err == nil {
			break
		} else if try >= 50 {
			t.Fatalf("shard %s: initial recover (attempt %d): %v", node, try, err)
		} else {
			s.logf("shard %s: initial recover attempt %d: %v", node, try, err)
			c.Close()
		}
	}
	s.c = c
	s.h.set(serverFor(c))
	s.srv = httptest.NewServer(s.h)
	t.Cleanup(func() {
		s.srv.Close()
		s.collector().Close()
	})
	return s
}

func (s *shardRig) collector() *ingest.Collector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// supervise watches for a poisoned journal and restarts the shard:
// swap in a 503 stub (in-flight and new uploads bounce, clients
// retry), close the broken collector, rebuild + recover on the same
// data dir — through the same faulted filesystem — and swap the fresh
// server back in. Recovery itself can be faulted (a rotation fsync,
// say), so it retries until it lands.
func (s *shardRig) supervise(world *scenario.Scenario, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-time.After(10 * time.Millisecond):
		}
		c := s.collector()
		if c.JournalError() == nil {
			continue
		}
		s.logf("shard %s: journal poisoned: %v", s.node, c.JournalError())
		s.h.set(stub503)
		c.Close()
		start := time.Now()
		var fresh *ingest.Collector
		for try := 1; ; try++ {
			nc := ingest.NewCollector(world, s.cfg)
			if _, err := nc.Recover(); err == nil {
				fresh = nc
				break
			} else if try <= 3 || try%50 == 0 {
				s.logf("shard %s: recovery attempt %d: %v", s.node, try, err)
			}
			nc.Close()
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		s.mu.Lock()
		s.c = fresh
		s.restarts++
		s.recoveryMs = append(s.recoveryMs, time.Since(start).Milliseconds())
		n := s.restarts
		s.mu.Unlock()
		s.h.set(serverFor(fresh))
		s.logf("shard %s: restart %d recovered in %v", s.node, n, time.Since(start).Round(time.Millisecond))
	}
}

// chaosReport is the CHAOS_report.json artifact CI uploads: per-site
// fault counts and per-shard recovery timings for each seeded run.
type chaosReport struct {
	WorldSeed   int64      `json:"world_seed"`
	WorldScale  float64    `json:"world_scale"`
	Runs        []chaosRun `json:"runs"`
	GeneratedBy string     `json:"generated_by"`
}

type chaosRun struct {
	ChaosSeed    uint64             `json:"chaos_seed"`
	Restarts     map[string]int     `json:"restarts"`
	RecoveryMs   map[string][]int64 `json:"recovery_ms"`
	UploadSecs   float64            `json:"upload_secs"`
	ConvergeSecs float64            `json:"converge_secs"`
	Sites        []chaos.SiteReport `json:"sites"`
}

func subset(evs map[int32][]ingest.Event, users []int32) map[int32][]ingest.Event {
	out := make(map[int32][]ingest.Event, len(users))
	for _, uid := range users {
		out[uid] = evs[uid]
	}
	return out
}

// TestChaosClusterGoldenParity is the chaos acceptance test: a
// three-shard cluster plus fan-in runs an entire replayed study under
// the seeded fault schedule, heals, and must serve all experiment
// artifacts byte-identical to the uninterrupted batch study — while
// every fault site is proven to have fired at least once.
func TestChaosClusterGoldenParity(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness is not short")
	}

	study, err := crossborder.New(context.Background(),
		crossborder.WithSeed(worldSeed),
		crossborder.WithScale(worldScale),
		crossborder.WithVisitsPerUser(worldVisits))
	if err != nil {
		t.Fatal(err)
	}
	want := study.RenderAll()
	ids := crossborder.ExperimentIDs()

	world := scenario.BuildWorld(scenario.Params{Seed: worldSeed, Scale: worldScale, VisitsPerUser: worldVisits})
	events := ingest.RecordSimulation(world, worldVisits, 3)

	nodes := []string{"c0", "c1", "c2"}
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	parts := ring.Partition(sortedUsers(events))
	for _, n := range nodes {
		if len(parts[n]) == 0 {
			t.Fatalf("shard %s owns no users; scale the rig up", n)
		}
	}

	report := chaosReport{WorldSeed: worldSeed, WorldScale: worldScale, GeneratedBy: "internal/ingest/chaostest"}

	for _, chaosSeed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed-%#x", chaosSeed), func(t *testing.T) {
			inj := chaos.New(chaosSeed)
			clientRT := chaos.NewTransport(inj, "client", clientFaults, nil)
			faninRT := chaos.NewTransport(inj, "fanin", faninFaults, nil)

			shards := make(map[string]*shardRig, len(nodes))
			for _, n := range nodes {
				shards[n] = newShardRig(t, world, n, chaos.NewFaultFS(inj, n, fsFaults, nil))
			}

			// Record the run in the report even when an assertion below
			// fails — a diagnosable artifact beats an empty one.
			var uploadSecs, convergeSecs float64
			defer func() {
				run := chaosRun{
					ChaosSeed: chaosSeed, Restarts: map[string]int{}, RecoveryMs: map[string][]int64{},
					UploadSecs: uploadSecs, ConvergeSecs: convergeSecs, Sites: inj.Report(),
				}
				for _, s := range shards {
					s.mu.Lock()
					run.Restarts[s.node] = s.restarts
					run.RecoveryMs[s.node] = s.recoveryMs
					s.mu.Unlock()
				}
				report.Runs = append(report.Runs, run)
			}()

			stop := make(chan struct{})
			defer close(stop)
			for _, s := range shards {
				go s.supervise(world, stop)
			}

			reg := cluster.NewRegistry(3*time.Second, 10*time.Second)
			beat := func() {
				for _, s := range shards {
					reg.Observe(cluster.Heartbeat{Node: s.node, Addr: s.srv.URL})
				}
			}
			fanin := &cluster.Fanin{
				World: world, Registry: reg, Shards: nodes, Workers: 2,
				HTTP:         &http.Client{Transport: faninRT, Timeout: 10 * time.Second},
				BreakerFails: 3, BreakerCooldown: 100 * time.Millisecond,
				StaleAfter: time.Second,
			}
			// Poll the shards under fire the way mergerd's loop would; the
			// published view degrades and recovers as the breakers trip.
			pollStop := make(chan struct{})
			pollDone := make(chan struct{})
			go func() {
				defer close(pollDone)
				for {
					select {
					case <-pollStop:
						return
					case <-time.After(400 * time.Millisecond):
						beat()
						fanin.RefreshOnce()
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
			upStart := time.Now()
			var wg sync.WaitGroup
			upErr := make(chan error, len(nodes))
			for _, n := range nodes {
				wg.Add(1)
				go func(s *shardRig, users []int32) {
					defer wg.Done()
					if _, err := newClient(s).Replay(subset(events, users), 128, 1); err != nil {
						upErr <- fmt.Errorf("shard %s: %w", s.node, err)
					}
				}(shards[n], parts[n])
			}
			wg.Wait()
			close(upErr)
			for err := range upErr {
				t.Fatal(err)
			}
			uploadSecs = time.Since(upStart).Seconds()

			// Heal, then one clean re-replay per shard: in-process nothing
			// acknowledged can be lost, but the re-send proves it — every
			// record dedups or fills a hole, exactly the client contract.
			inj.Heal()
			for _, n := range nodes {
				if _, err := newClient(shards[n]).Replay(subset(events, parts[n]), 768, 1); err != nil {
					t.Fatalf("healing re-replay %s: %v", n, err)
				}
				if _, _, err := newClient(shards[n]).Flush(); err != nil {
					t.Fatalf("flush %s: %v", n, err)
				}
			}

			// Converge the fan-in on the final shard epochs.
			close(pollStop)
			<-pollDone
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

			// The merged cluster view must serve every artifact
			// byte-identical to the uninterrupted batch study.
			qsrv := httptest.NewServer(ingest.NewQueryServer(fanin.Snapshot, fanin.Ready))
			defer qsrv.Close()
			qcl := &ingest.Client{Base: qsrv.URL}
			for i, id := range ids {
				text, _, err := qcl.Artifact(id)
				if err != nil {
					t.Fatalf("artifact %s: %v", id, err)
				}
				if text != want[i] {
					t.Errorf("artifact %s differs from the batch study", id)
				}
			}

			// The schedule must have exercised every seam: a site that
			// never fired is a dead injection point, not a passing test.
			sites := inj.Report()
			for _, sr := range sites {
				if sr.Fired == 0 {
					t.Errorf("fault site %s never fired (%d draws); raise its rate or the load", sr.Site, sr.Draws)
				}
			}
			totalRestarts := 0
			for _, s := range shards {
				s.mu.Lock()
				totalRestarts += s.restarts
				s.mu.Unlock()
			}
			t.Logf("seed %#x: %d shard restarts, upload %.1fs, converge %.2fs, %d fault sites live",
				chaosSeed, totalRestarts, uploadSecs, convergeSecs, len(sites))
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

func sortedUsers(evs map[int32][]ingest.Event) []int32 {
	users := make([]int32, 0, len(evs))
	for uid := range evs {
		users = append(users, uid)
	}
	for i := 1; i < len(users); i++ {
		for j := i; j > 0 && users[j] < users[j-1]; j-- {
			users[j], users[j-1] = users[j-1], users[j]
		}
	}
	return users
}
