package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crossborder/internal/core"
)

func newTestServer(t *testing.T, cfg Config) (*Collector, *httptest.Server) {
	t.Helper()
	world, _, _ := rig(t)
	c := NewCollector(world, cfg)
	srv := httptest.NewServer(NewServer(c))
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, srv
}

// TestServerEndpoints covers the HTTP surface end to end with both wire
// formats: upload, flush, stats, experiment query, health, metrics.
func TestServerEndpoints(t *testing.T) {
	_, evs, _ := rig(t)
	c, srv := newTestServer(t, Config{EpochEvents: 1 << 20, Workers: 2})

	for _, binary := range []bool{false, true} {
		cl := &Client{Base: srv.URL, Binary: binary}
		uid, stream := int32(-1), []Event(nil)
		for u, s := range evs {
			if uid < 0 || u < uid {
				uid, stream = u, s
			}
		}
		seq := c.nextSeqOf(uid)
		res, err := cl.Upload(Batch{User: uid, Seq: seq, Events: stream[seq : seq+5]})
		if err != nil {
			t.Fatalf("binary=%v upload: %v", binary, err)
		}
		if res.Accepted != 5 {
			t.Fatalf("binary=%v accepted = %d, want 5", binary, res.Accepted)
		}
	}

	// Sequence gap surfaces as 409.
	cl := &Client{Base: srv.URL}
	var uid int32 = -1
	for u := range evs {
		if uid < 0 || u < uid {
			uid = u
		}
	}
	if _, err := cl.Upload(Batch{User: uid, Seq: 10000, Events: evs[uid][:1]}); err == nil ||
		!strings.Contains(err.Error(), "409") {
		t.Fatalf("gap upload error = %v, want 409", err)
	}

	// Experiments before any epoch: 409.
	if _, _, err := cl.Artifact("table1"); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("experiment on epoch 0 = %v, want 409", err)
	}

	epoch, rows, err := cl.Flush()
	if err != nil || epoch != 1 || rows == 0 {
		t.Fatalf("flush: epoch=%d rows=%d err=%v", epoch, rows, err)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Rows != rows || st.Stats.Users != 1 {
		t.Fatalf("stats = %+v", st)
	}

	text, gotEpoch, err := cl.Artifact("table1")
	if err != nil || gotEpoch != 1 || !strings.Contains(text, "Table 1") {
		t.Fatalf("artifact: epoch=%d err=%v text=%q", gotEpoch, err, text)
	}
	if _, _, err := cl.Artifact("nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown experiment = %v, want 404", err)
	}

	for _, path := range []string{"/healthz", "/metrics", "/v1/experiments"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", path, resp.Status)
		}
		switch path {
		case "/metrics":
			if !strings.Contains(string(body), "collectd_events_total") {
				t.Errorf("metrics missing counters: %s", body)
			}
		case "/healthz":
			if !strings.Contains(string(body), `"ok"`) {
				t.Errorf("healthz: %s", body)
			}
		case "/v1/experiments":
			var ids []string
			if json.Unmarshal(body, &ids) != nil || len(ids) != 20 {
				t.Errorf("experiment list: %s", body)
			}
		}
	}
}

// nextSeqOf reads a user's next expected sequence number (test helper).
func (c *Collector) nextSeqOf(uid int32) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextSeq[uid]
}

// TestConcurrentUploadAndQuery is the live-serving consistency test: N
// uploaders stream distinct users' events (forcing many epoch commits)
// while M queriers hammer the stats and experiment endpoints. Every
// query must observe a consistent epoch snapshot — the reported row
// count must exactly match the committed row count of the epoch the
// response names, never a torn intermediate. Run under -race in CI.
func TestConcurrentUploadAndQuery(t *testing.T) {
	_, evs, _ := rig(t)
	c, srv := newTestServer(t, Config{EpochEvents: 400, Workers: 2, ChunkRows: 128})

	userIDs := make([]int32, 0, len(evs))
	for uid := range evs {
		userIDs = append(userIDs, uid)
	}

	const uploaders = 4
	const queriers = 3
	var wg sync.WaitGroup
	type obs struct {
		epoch int
		rows  int
	}
	observed := make(chan obs, 4096)
	done := make(chan struct{})

	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			cl := &Client{Base: srv.URL}
			for {
				select {
				case <-done:
					return
				default:
				}
				if q%2 == 0 {
					st, err := cl.Stats()
					if err != nil {
						t.Error(err)
						return
					}
					observed <- obs{st.Epoch, st.Rows}
				} else {
					resp, err := http.Get(srv.URL + "/v1/experiments/table1")
					if err != nil {
						t.Error(err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusConflict {
						continue // epoch 0: nothing committed yet
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("table1: %s", resp.Status)
						return
					}
					epoch, _ := strconv.Atoi(resp.Header.Get("X-Epoch"))
					rows, _ := strconv.Atoi(resp.Header.Get("X-Rows"))
					// The artifact itself must agree with the snapshot
					// header: Table 1's request count is the row count.
					if !strings.Contains(string(body), fmt.Sprintf("%d", rows)) {
						t.Errorf("table1 at epoch %d does not mention its own row count %d:\n%s", epoch, rows, body)
						return
					}
					observed <- obs{epoch, rows}
				}
			}
		}(q)
	}

	var upWG sync.WaitGroup
	for u := 0; u < uploaders; u++ {
		upWG.Add(1)
		go func(u int) {
			defer upWG.Done()
			cl := &Client{Base: srv.URL, Binary: u%2 == 0}
			for j := u; j < len(userIDs); j += uploaders {
				stream := evs[userIDs[j]]
				for off := 0; off < len(stream); off += 200 {
					hi := off + 200
					if hi > len(stream) {
						hi = len(stream)
					}
					if _, err := cl.Upload(Batch{User: userIDs[j], Seq: uint64(off), Events: stream[off:hi]}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(u)
	}
	upWG.Wait()
	(&Client{Base: srv.URL}).Flush()
	close(done)
	wg.Wait()
	close(observed)

	// Every observed (epoch, rows) pair must match the commit history.
	rowsAt := map[int]int{0: 0}
	for _, e := range c.Epochs() {
		rowsAt[e.Epoch] = e.Rows
	}
	n := 0
	for o := range observed {
		want, ok := rowsAt[o.epoch]
		if !ok {
			t.Fatalf("query saw unknown epoch %d", o.epoch)
		}
		if o.rows != want {
			t.Fatalf("query at epoch %d saw %d rows, committed history says %d", o.epoch, o.rows, want)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no queries observed")
	}
	if len(c.Epochs()) < 2 {
		t.Fatalf("test exercised only %d epochs; lower EpochEvents", len(c.Epochs()))
	}

	// After the dust settles the dataset equals the single-stream replay
	// (upload interleaving may only reorder users across epochs, which
	// changes ids but not counts: compare the stats).
	snap := c.Snapshot()
	total := 0
	for _, stream := range evs {
		for _, ev := range stream {
			if ev.Kind == KindRequest {
				total++
			}
		}
	}
	if int(snap.Stats().ThirdPartyReqs) != total {
		t.Fatalf("final rows = %d, want %d", snap.Stats().ThirdPartyReqs, total)
	}
}

// TestReadinessEndpoints: /healthz is pure liveness (200 always);
// /readyz splits out readiness — 503 with recovery progress before
// Recover, 200 once recovered, 503 "draining" after BeginDrain — and
// uploads mirror it with 503 + Retry-After.
func TestReadinessEndpoints(t *testing.T) {
	world, evs, _ := rig(t)
	cfg := Config{EpochEvents: 1 << 20, Workers: 2, DataDir: t.TempDir(), WALSync: "none"}
	c := NewCollector(world, cfg)
	srv := httptest.NewServer(NewServer(c))
	t.Cleanup(func() { srv.Close(); c.Close() })
	get := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body), resp.Header
	}

	// Pre-recovery: alive, not ready, uploads bounce retryably.
	if code, body, _ := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz pre-recovery = %d %s", code, body)
	}
	code, body, hdr := get("/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "recovering") ||
		!strings.Contains(body, "segments_total") || hdr.Get("Retry-After") == "" {
		t.Fatalf("readyz pre-recovery = %d %s (Retry-After %q)", code, body, hdr.Get("Retry-After"))
	}
	var uid int32
	for u := range evs {
		uid = u
		break
	}
	cl := &Client{Base: srv.URL, Binary: true}
	if _, err := cl.Upload(Batch{User: uid, Seq: 0, Events: evs[uid][:1]}); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Fatalf("pre-recovery upload = %v, want 503", err)
	}

	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if code, body, _ := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz post-recovery = %d %s", code, body)
	}
	if !cl.Ready() {
		t.Fatal("client Ready() false on a recovered collector")
	}
	if _, err := cl.Upload(Batch{User: uid, Seq: 0, Events: evs[uid][:1]}); err != nil {
		t.Fatal(err)
	}

	c.BeginDrain()
	if code, body, _ := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("readyz draining = %d %s", code, body)
	}
	if code, _, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz draining = %d, want 200", code)
	}
	if _, err := cl.Upload(Batch{User: uid, Seq: 1, Events: evs[uid][1:2]}); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Fatalf("draining upload = %v, want 503", err)
	}
}

// TestCommitObservability: while an epoch commit runs, /v1/stats and
// /metrics report it in flight with its events still pending, the
// upload that cut it has already returned with the previous snapshot,
// and the next upload to cut waits for it and is counted in
// commit_waits.
func TestCommitObservability(t *testing.T) {
	world, evs, _ := rig(t)
	var uid int32 = -1
	for u, s := range evs {
		if len(s) >= 40 && (uid < 0 || u < uid) {
			uid = u
		}
	}
	stream := evs[uid]
	c := NewCollector(world, Config{EpochEvents: 10, Workers: 2})
	t.Cleanup(c.Close)
	h := NewServer(c)
	stats := func() StatsResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var st StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	metrics := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String()
	}

	c.commitMu.Lock() // holds the committer at the start of its commit
	res, err := c.Ingest(Batch{User: uid, Seq: 0, Events: stream[:12]})
	if err != nil || res.Accepted != 12 || res.Epoch != 0 {
		t.Fatalf("cutting upload = %+v, %v; want 12 accepted at epoch 0", res, err)
	}
	if st := stats(); st.CommitInFlight != 1 || st.Pending != 12 || st.CommitWaits != 0 || st.Epoch != 0 {
		t.Fatalf("stats during the commit: in flight %d, pending %d, waits %d, epoch %d",
			st.CommitInFlight, st.Pending, st.CommitWaits, st.Epoch)
	}
	for _, want := range []string{"collectd_commit_in_flight 1\n", "collectd_pending_events 12\n", "collectd_commit_waits_total 0\n"} {
		if m := metrics(); !strings.Contains(m, want) {
			t.Fatalf("metrics during the commit lack %q:\n%s", want, m)
		}
	}

	done := make(chan UploadResult)
	go func() {
		res, err := c.Ingest(Batch{User: uid, Seq: 12, Events: stream[12:24]})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	// Once the second upload holds the ingest lock it has to wait: the
	// epoch it cuts cannot start before the held commit publishes.
	for c.mu.TryLock() {
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	c.commitMu.Unlock()
	if res := <-done; res.Accepted != 12 || res.Epoch < 1 {
		t.Fatalf("waiting upload = %+v; want 12 accepted, epoch 1 published", res)
	}
	c.Flush()
	if st := stats(); st.CommitInFlight != 0 || st.Pending != 0 || st.CommitWaits != 1 || st.Epoch != 2 {
		t.Fatalf("stats after flush: in flight %d, pending %d, waits %d, epoch %d",
			st.CommitInFlight, st.Pending, st.CommitWaits, st.Epoch)
	}
	for _, want := range []string{"collectd_commit_in_flight 0\n", "collectd_pending_events 0\n", "collectd_commit_waits_total 1\n"} {
		if m := metrics(); !strings.Contains(m, want) {
			t.Fatalf("metrics after flush lack %q:\n%s", want, m)
		}
	}
}

// TestSnapshotQueryCosts guards what queries pay per snapshot:
// /v1/stats derives the flow maps without building the snapshot's
// experiments Suite, so it never compiles the tracker inventory; and
// the Suite serves the snapshot's own analyses, so a snapshot runs one
// join whichever is asked first, also when both are asked at once (a
// fresh merged snapshot queried from several goroutines).
func TestSnapshotQueryCosts(t *testing.T) {
	world, evs, _ := rig(t)
	c := NewCollector(world, Config{EpochEvents: 1 << 20, Workers: 2})
	defer c.Close()
	snap := ingestAll(t, c, evs, 211)

	resp := statsResponse(snap, 0)
	if snap.suite != nil {
		t.Fatal("/v1/stats built the snapshot's Suite (and compiled the tracker inventory)")
	}
	if resp.Flows["ipmap"].Flows == 0 {
		t.Fatal("/v1/stats reports no IPmap flows")
	}
	sameFlows := func(label string, s *Snapshot) {
		t.Helper()
		su := s.Suite()
		for _, p := range []struct {
			name        string
			suite, snap *core.Analysis
		}{
			{"truth", su.TruthAnalysis(), s.TruthAnalysis()},
			{"ipmap", su.IPMapAnalysis(), s.IPMapAnalysis()},
			{"maxmind", su.MaxMindAnalysis(), s.MaxMindAnalysis()},
		} {
			if p.suite != p.snap {
				t.Errorf("%s: the Suite's %s analysis is not the snapshot's: the snapshot joined twice", label, p.name)
			}
		}
	}
	sameFlows("collector", snap)

	data, _, err := c.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := DecodeShardExport(data)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeExports(world, []*ShardExport{ex}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				statsResponse(merged, 0)
			} else {
				if _, err := merged.Suite().Artifact(context.Background(), "fig7"); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	sameFlows("merged", merged)
}
