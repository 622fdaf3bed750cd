// Package crashtest checks what only a real process can show: it runs
// collectd as a subprocess, stops it the two ways a daemon stops, and
// restarts it against the same data directory. A SIGKILL under
// wal-sync=always, landing once half the replay is acknowledged, must
// lose no acknowledged upload; a SIGTERM must drain, write a final
// checkpoint and exit 0. After each restart every artifact must be
// byte-identical to the batch study (internal/goldentest). Repeated
// kills at seeded points, under wal-sync=interval and healed by
// re-sends, are the crash fault family of internal/ingest/chaostest.
package crashtest

import (
	"bufio"
	"bytes"
	"fmt"
	"maps"
	"net/http"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"crossborder/internal/goldentest"
	"crossborder/internal/ingest"
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

// startDaemon launches collectd and waits until it accepts uploads.
// addr may be "127.0.0.1:0" for the first start; restarts pass the
// previously bound port so the client's base URL stays valid across
// crashes.
func startDaemon(t *testing.T, bin, dataDir, addr, walSync string) *daemon {
	t.Helper()
	d := &daemon{logDone: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-addr", addr,
		"-seed", strconv.Itoa(goldentest.Seed),
		"-scale", fmt.Sprintf("%g", goldentest.Scale),
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
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + d.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("collectd never became ready:\n%s", d.log())
	return nil
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.errs.String()
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

// TestCrashRecoveryGoldenParity is the subprocess durability test:
//
//  1. uninterrupted — a durable collectd run serves artifacts
//     byte-identical to the batch study, and so does the daemon
//     restarted after a graceful SIGTERM;
//  2. sigkill-always — collectd under wal-sync=always is SIGKILLed
//     right after half the users' streams are acknowledged; the
//     restarted daemon must answer every one of those events as a
//     duplicate when the whole study is re-sent, then serve the
//     golden artifacts.
func TestCrashRecoveryGoldenParity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness is not short")
	}

	bin := filepath.Join(t.TempDir(), "collectd")
	build := exec.Command("go", "build", "-o", bin, "crossborder/cmd/collectd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building collectd: %v\n%s", err, out)
	}
	g := goldentest.Load(t)

	t.Run("uninterrupted", func(t *testing.T) {
		dir := t.TempDir()
		d := startDaemon(t, bin, dir, "127.0.0.1:0", "interval")
		cl := &ingest.Client{Base: "http://" + d.addr, Binary: true,
			Retry: &ingest.RetryPolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond}}
		if _, err := cl.Replay(g.Events, 768, 1); err != nil {
			t.Fatalf("replay: %v\n%s", err, d.log())
		}
		if _, _, err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		g.Check(t, cl, "uninterrupted")

		// Graceful shutdown writes a final checkpoint; a restart must
		// come back ready with the same artifacts.
		d.stopGracefully(t)
		d2 := startDaemon(t, bin, dir, d.addr, "interval")
		g.Check(t, cl, "post-graceful-restart")
		d2.stopGracefully(t)
	})

	t.Run("sigkill-always", func(t *testing.T) {
		users := slices.Sorted(maps.Keys(g.Events))
		acked := make(map[int32][]ingest.Event, len(users)/2)
		ackedEvents := 0
		for _, uid := range users[:len(users)/2] {
			acked[uid] = g.Events[uid]
			ackedEvents += len(g.Events[uid])
		}

		dir := t.TempDir()
		d := startDaemon(t, bin, dir, "127.0.0.1:0", "always")
		cl := &ingest.Client{Base: "http://" + d.addr, Binary: true,
			Retry: &ingest.RetryPolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond}}
		if _, err := cl.Replay(acked, 768, 1); err != nil {
			t.Fatalf("replay: %v\n%s", err, d.log())
		}
		d.kill9(t)
		d = startDaemon(t, bin, dir, d.addr, "always")

		// Re-send the whole study: under wal-sync=always every event
		// acknowledged before the kill is on disk, so it dedups.
		dups := 0
		upload := func(b ingest.Batch) error {
			res, err := cl.Upload(b)
			dups += res.Duplicate
			return err
		}
		if _, _, err := ingest.UploadUsers(upload, g.Events, users, 768); err != nil {
			t.Fatalf("re-send: %v\n%s", err, d.log())
		}
		if dups != ackedEvents {
			t.Errorf("re-send found %d of the %d acknowledged events already journaled", dups, ackedEvents)
		}
		if _, _, err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		g.Check(t, cl, "recovered")
		d.stopGracefully(t)
	})
}
