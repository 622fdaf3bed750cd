// Package crashtest is the fault-injection harness of the durable
// collector: it runs collectd as a real subprocess, SIGKILLs it at
// randomized points mid-upload, restarts it against the same data
// directory, and asserts the recovered artifacts are byte-identical to
// the batch crossborder.New study — the uninterrupted golden. A
// retrying client rides through every crash, so the harness also
// proves the end-to-end at-least-once contract: kill -9 at any point
// loses nothing that was acknowledged and duplicates nothing that
// wasn't.
package crashtest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"crossborder"
	"crossborder/internal/ingest"
	"crossborder/internal/scenario"
)

const (
	crashSeed   = 1
	crashScale  = 0.05
	crashVisits = 40
)

// daemon is one collectd subprocess bound to a data dir.
type daemon struct {
	cmd  *exec.Cmd
	addr string // host:port actually bound (parsed from stderr)
	errs bytes.Buffer
	mu   sync.Mutex
	// logDone closes once stderr reaches EOF: the process has exited
	// and every line it wrote is in errs.
	logDone chan struct{}
}

// startDaemon launches collectd. addr may be "127.0.0.1:0" for the
// first start; restarts pass the previously bound port so the client's
// base URL stays valid across crashes.
func startDaemon(t *testing.T, bin, dataDir, addr, walSync string) *daemon {
	t.Helper()
	d := &daemon{logDone: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-addr", addr,
		"-seed", strconv.Itoa(crashSeed),
		"-scale", fmt.Sprintf("%g", crashScale),
		"-epoch", "1777",
		"-data", dataDir,
		"-wal-sync", walSync,
		"-wal-segment", strconv.Itoa(256<<10), // small segments: rotation + GC exercised for real
	)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start collectd: %v", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.errs.WriteString(line + "\n")
			d.mu.Unlock()
			if a, ok := strings.CutPrefix(line, "collectd: serving on "); ok {
				if i := strings.IndexByte(a, ' '); i >= 0 {
					a = a[:i]
				}
				select {
				case addrCh <- a:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrCh:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("collectd never announced its listen address:\n%s", d.log())
	}
	return d
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.errs.String()
}

// waitReady polls /readyz until the daemon accepts uploads and returns
// how long recovery took from the poll start.
func (d *daemon) waitReady(t *testing.T) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + d.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon never became ready:\n%s", d.log())
	return 0
}

// kill9 is the crash: SIGKILL, no warning, no cleanup.
func (d *daemon) kill9(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

// stopGracefully sends SIGTERM and requires a clean exit: drained
// uploads, final checkpoint, exit code 0.
func (d *daemon) stopGracefully(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait closes the stderr pipe, so it runs only after the reader has
	// drained it; otherwise the last lines the daemon wrote can be lost.
	select {
	case <-d.logDone:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("collectd did not exit within 30s of SIGTERM:\n%s", d.log())
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("collectd exited %v on SIGTERM, want 0:\n%s", err, d.log())
	}
	if !strings.Contains(d.log(), "checkpointed epoch") {
		t.Fatalf("graceful shutdown wrote no checkpoint:\n%s", d.log())
	}
}

// crashReport is the recovery-time measurement artifact
// (CRASHTEST_REPORT names the output file; CI uploads it).
type crashReport struct {
	Seed        int64       `json:"world_seed"`
	Scale       float64     `json:"world_scale"`
	Runs        []runReport `json:"runs"`
	GeneratedBy string      `json:"generated_by"`
}

type runReport struct {
	Kind        string  `json:"kind"` // "uninterrupted" | "crash"
	HarnessSeed uint64  `json:"harness_seed,omitempty"`
	Kills       int     `json:"kills"`
	RecoveryMs  []int64 `json:"recovery_ms"`
	UploadSecs  float64 `json:"upload_secs"`
}

// TestCrashRecoveryGoldenParity is the durability acceptance test:
//
//  1. golden — the batch crossborder.New study at the same params;
//  2. an uninterrupted durable collectd run must serve artifacts
//     byte-identical to it (WAL + checkpoint in the loop, no faults);
//  3. N crash runs — collectd SIGKILLed at randomized points while a
//     retrying client uploads — must each recover to the same bytes.
//
// CRASHTEST_RUNS overrides the crash-run count (default 2; each run
// takes a few seconds). CRASHTEST_REPORT writes recovery timings JSON.
func TestCrashRecoveryGoldenParity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness is not short")
	}

	bin := filepath.Join(t.TempDir(), "collectd")
	build := exec.Command("go", "build", "-o", bin, "crossborder/cmd/collectd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building collectd: %v\n%s", err, out)
	}

	study, err := crossborder.New(context.Background(),
		crossborder.WithSeed(crashSeed),
		crossborder.WithScale(crashScale),
		crossborder.WithVisitsPerUser(crashVisits))
	if err != nil {
		t.Fatal(err)
	}
	want := study.RenderAll()
	ids := crossborder.ExperimentIDs()

	world := scenario.BuildWorld(scenario.Params{Seed: crashSeed, Scale: crashScale, VisitsPerUser: crashVisits})
	events := ingest.RecordSimulation(world, crashVisits, 3)

	crashRuns := 2
	if v := os.Getenv("CRASHTEST_RUNS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			crashRuns = n
		}
	}

	report := crashReport{Seed: crashSeed, Scale: crashScale, GeneratedBy: "internal/ingest/crashtest"}

	// checkArtifacts fetches every experiment and compares bytes.
	checkArtifacts := func(t *testing.T, cl *ingest.Client, label string) {
		t.Helper()
		for i, id := range ids {
			text, _, err := cl.Artifact(id)
			if err != nil {
				t.Fatalf("%s: artifact %s: %v", label, id, err)
			}
			if text != want[i] {
				t.Errorf("%s: artifact %s differs from the batch study", label, id)
			}
		}
	}

	// Run 0: uninterrupted durable run — the journaling and checkpoint
	// machinery itself must not perturb the dataset.
	t.Run("uninterrupted", func(t *testing.T) {
		dir := t.TempDir()
		d := startDaemon(t, bin, dir, "127.0.0.1:0", "interval")
		d.waitReady(t)
		cl := &ingest.Client{Base: "http://" + d.addr, Binary: true,
			Retry: &ingest.RetryPolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond}}
		up := time.Now()
		if _, err := cl.Replay(events, 768, 1); err != nil {
			t.Fatalf("replay: %v\n%s", err, d.log())
		}
		if _, _, err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		checkArtifacts(t, cl, "uninterrupted")
		report.Runs = append(report.Runs, runReport{Kind: "uninterrupted", UploadSecs: time.Since(up).Seconds()})

		// Graceful shutdown writes a final checkpoint; a restart must
		// come back ready with the same artifacts, replaying nothing of
		// consequence.
		d.stopGracefully(t)
		d2 := startDaemon(t, bin, dir, d.addr, "interval")
		rec := d2.waitReady(t)
		checkArtifacts(t, cl, "post-graceful-restart")
		report.Runs[len(report.Runs)-1].RecoveryMs = []int64{rec.Milliseconds()}
		d2.stopGracefully(t)
	})

	// Crash runs: kill -9 at randomized points while uploads stream.
	// wal-sync=always on the first run (every acknowledged batch is on
	// disk when the SIGKILL lands), interval on the rest (the torn tail
	// is healed by the client's re-sends).
	for run := 0; run < crashRuns; run++ {
		hseed := uint64(0x9E3779B97F4A7C15 * uint64(run+1))
		walSync := "interval"
		if run == 0 {
			walSync = "always"
		}
		t.Run(fmt.Sprintf("crash-run-%d-%s", run, walSync), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(hseed, uint64(run)))
			dir := t.TempDir()
			d := startDaemon(t, bin, dir, "127.0.0.1:0", walSync)
			d.waitReady(t)
			cl := &ingest.Client{Base: "http://" + d.addr, Binary: true,
				// Generous budget: the client must outlast a kill plus a
				// restart plus recovery (seconds), retrying 503s and
				// connection errors the whole way.
				Retry: &ingest.RetryPolicy{MaxAttempts: 400, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}}

			rr := runReport{Kind: "crash", HarnessSeed: hseed, Kills: 2}
			upStart := time.Now()
			uploadDone := make(chan error, 1)
			go func() {
				_, err := cl.Replay(events, 768, 1)
				uploadDone <- err
			}()

			for kill := 0; kill < rr.Kills; kill++ {
				// Randomized crash point inside the upload window.
				delay := time.Duration(50+rng.IntN(400)) * time.Millisecond
				select {
				case err := <-uploadDone:
					// Uploads finished before the kill landed — the crash
					// then tests recovery of a fully uploaded state.
					if err != nil {
						t.Fatalf("replay: %v\n%s", err, d.log())
					}
					uploadDone = nil
				case <-time.After(delay):
				}
				d.kill9(t)
				d = startDaemon(t, bin, dir, d.addr, walSync)
				rec := d.waitReady(t)
				rr.RecoveryMs = append(rr.RecoveryMs, rec.Milliseconds())
				if uploadDone == nil {
					// Everything was uploaded pre-crash; the client is
					// gone, so re-send the stream ourselves — duplicates
					// dedup, losses (torn unsynced tail) heal.
					if _, err := cl.Replay(events, 768, 1); err != nil {
						t.Fatalf("post-crash re-replay: %v\n%s", err, d.log())
					}
				}
			}
			if uploadDone != nil {
				if err := <-uploadDone; err != nil {
					t.Fatalf("replay: %v\n%s", err, d.log())
				}
				// The in-flight client rode through the crashes, but a
				// batch acknowledged just before a kill -9 can die with
				// an unsynced WAL tail (wal-sync=interval): the client
				// saw OK, the disk never did. The at-least-once contract
				// covers exactly this — one final full re-send heals any
				// such hole and dedups everything else.
				if _, err := cl.Replay(events, 768, 1); err != nil {
					t.Fatalf("healing re-replay: %v\n%s", err, d.log())
				}
			}
			rr.UploadSecs = time.Since(upStart).Seconds()
			if _, _, err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
			checkArtifacts(t, cl, "recovered")
			d.stopGracefully(t)
			report.Runs = append(report.Runs, rr)
		})
	}

	if path := os.Getenv("CRASHTEST_REPORT"); path != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", path, err)
		}
		t.Logf("recovery report written to %s", path)
	}
}
