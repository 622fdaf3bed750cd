package chaos

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestSiteStreamsAreDeterministicAndDisjoint: equal (seed, site)
// pairs fire at equal positions in every window; different sites and
// different seeds do not.
func TestSiteStreamsAreDeterministicAndDisjoint(t *testing.T) {
	draw := func(seed uint64, site string) []bool {
		s := New(seed).Site(site)
		out := make([]bool, 200)
		for i := range out {
			out[i] = s.Hit(0.3)
		}
		return out
	}
	a := draw(42, "c0/net.reset")
	if !slices.Equal(a, draw(42, "c0/net.reset")) {
		t.Fatal("same (seed, site) diverged")
	}
	if slices.Equal(a, draw(42, "c1/net.reset")) {
		t.Fatal("different sites share a stream")
	}
	if slices.Equal(a, draw(43, "c0/net.reset")) {
		t.Fatal("different seeds share a stream")
	}
}

// TestHitFiresOncePerWindow: Hit(p) fires exactly once in every
// complete window of ⌈1/p⌉ draws, so N draws fire ⌊N/window⌋ times
// plus at most one in the open window.
func TestHitFiresOncePerWindow(t *testing.T) {
	for _, tc := range []struct {
		p      float64
		window int
	}{{1, 1}, {0.5, 2}, {0.06, 17}, {0.05, 20}, {0.004, 250}} {
		for _, seed := range []uint64{1, 7, 0xC0FFEE} {
			s := New(seed).Site("x")
			const n = 2000
			fired, inWindow := 0, 0
			for i := 1; i <= n; i++ {
				if s.Hit(tc.p) {
					fired++
					inWindow++
				}
				if i%tc.window == 0 {
					if inWindow != 1 {
						t.Fatalf("p=%v seed=%d: window ending at draw %d fired %d times", tc.p, seed, i, inWindow)
					}
					inWindow = 0
				}
			}
			if full := n / tc.window; fired < full || fired > full+1 {
				t.Fatalf("p=%v seed=%d: %d draws fired %d times, want %d or %d", tc.p, seed, n, fired, full, full+1)
			}
		}
	}
}

func TestHitRateAndReport(t *testing.T) {
	in := New(7)
	s := in.Site("rate")
	fired := 0
	for i := 0; i < 10000; i++ {
		if s.Hit(0.1) {
			fired++
		}
	}
	if fired != 1000 {
		t.Fatalf("p=0.1 over 10000 draws fired %d times, want 1000", fired)
	}
	in.Site("idle")
	rep := in.Report()
	want := []SiteReport{{Site: "idle"}, {Site: "rate", Window: 10, Draws: 10000, Fired: 1000}}
	if len(rep) != 2 || rep[0] != want[0] || rep[1] != want[1] {
		t.Fatalf("report %+v, want %+v", rep, want)
	}
	if rep[0].Covered() || !rep[1].Covered() {
		t.Fatalf("coverage: idle %v, rate %v", rep[0].Covered(), rep[1].Covered())
	}
}

func TestHealStopsFaults(t *testing.T) {
	in := New(7)
	s := in.Site("x")
	in.Heal()
	for i := 0; i < 1000; i++ {
		if s.Hit(1.0) {
			t.Fatal("healed injector fired")
		}
	}
}

// transportFor builds a Transport with exactly one fault at p=1.
func transportFor(t *testing.T, in *Injector, f TransportFaults) (*Transport, *httptest.Server, *int) {
	t.Helper()
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "payload-payload-payload")
	}))
	t.Cleanup(srv.Close)
	return NewTransport(in, "t", f, nil), srv, &hits
}

func TestTransportReset(t *testing.T) {
	tr, srv, hits := transportFor(t, New(1), TransportFaults{Reset: 1})
	cl := &http.Client{Transport: tr}
	_, err := cl.Post(srv.URL, "text/plain", strings.NewReader("body"))
	if err == nil || !strings.Contains(err.Error(), "connection reset") {
		t.Fatalf("want injected reset, got %v", err)
	}
	if *hits != 0 {
		t.Fatalf("server saw %d requests through a reset", *hits)
	}
}

func TestTransportLostResponse(t *testing.T) {
	tr, srv, hits := transportFor(t, New(1), TransportFaults{LostResponse: 1})
	cl := &http.Client{Transport: tr}
	_, err := cl.Get(srv.URL)
	if err == nil || !strings.Contains(err.Error(), "response lost") {
		t.Fatalf("want injected loss, got %v", err)
	}
	if *hits != 1 {
		t.Fatalf("server saw %d requests; a lost response is applied server-side", *hits)
	}
}

func TestTransport503Burst(t *testing.T) {
	tr, srv, hits := transportFor(t, New(1), TransportFaults{Err503: 1, BurstLen: 2})
	cl := &http.Client{Transport: tr}
	for i := 0; i < 3; i++ {
		resp, err := cl.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: got %d, want synthetic 503", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("synthetic 503 missing Retry-After")
		}
	}
	if *hits != 0 {
		t.Fatalf("server saw %d requests during a 503 burst", *hits)
	}
}

func TestTransportTruncateAndCorrupt(t *testing.T) {
	tr, srv, _ := transportFor(t, New(3), TransportFaults{Truncate: 1})
	cl := &http.Client{Transport: tr}
	resp, err := cl.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(raw) >= len("payload-payload-payload") {
		t.Fatalf("truncated body still %d bytes", len(raw))
	}

	tr2, srv2, _ := transportFor(t, New(3), TransportFaults{Corrupt: 1})
	cl2 := &http.Client{Transport: tr2}
	resp2, err := cl2.Get(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if string(raw2) == "payload-payload-payload" {
		t.Fatal("corrupted body unchanged")
	}
	if len(raw2) != len("payload-payload-payload") {
		t.Fatalf("corrupt changed length to %d", len(raw2))
	}
}

func TestTransportHealedPassesThrough(t *testing.T) {
	in := New(9)
	tr, srv, hits := transportFor(t, in, TransportFaults{Reset: 1, Err503: 1, Truncate: 1, Corrupt: 1, LostResponse: 1})
	in.Heal()
	cl := &http.Client{Transport: tr}
	resp, err := cl.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(raw) != "payload-payload-payload" || *hits != 1 {
		t.Fatalf("healed transport mangled the exchange: %d %q hits=%d", resp.StatusCode, raw, *hits)
	}
}

func TestFaultFSShortWritePersistsPrefix(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(New(5), "d", FSFaults{ShortWrite: 1}, nil)
	f, err := fs.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	n, err := f.Write(payload)
	f.Close()
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected short-write error, got %v", err)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("short write persisted %d of %d bytes", n, len(payload))
	}
	got, err := os.ReadFile(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload[:n]) {
		t.Fatalf("on-disk prefix %q does not match reported %d bytes", got, n)
	}
}

func TestFaultFSSyncAndRename(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(New(5), "d", FSFaults{SyncFail: 1, RenameFail: 1}, nil)
	f, err := fs.OpenFile(filepath.Join(dir, "y"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected sync failure, got %v", err)
	}
	f.Close()
	if err := fs.Rename(filepath.Join(dir, "y"), filepath.Join(dir, "z")); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected rename failure, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "y")); err != nil {
		t.Fatal("torn rename lost the source file:", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected dir-sync failure, got %v", err)
	}
}

func TestFaultFSHealedIsTransparent(t *testing.T) {
	dir := t.TempDir()
	in := New(5)
	fs := NewFaultFS(in, "d", FSFaults{ShortWrite: 1, SyncFail: 1, RenameFail: 1}, nil)
	in.Heal()
	f, err := fs.CreateTemp(dir, "t*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	name := f.Name()
	f.Close()
	if err := fs.Rename(name, filepath.Join(dir, "final")); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(filepath.Join(dir, "final"))
	if err != nil || string(got) != "data" {
		t.Fatalf("healed FS mangled the file: %q %v", got, err)
	}
}

func TestTransportLatency(t *testing.T) {
	tr, srv, _ := transportFor(t, New(11), TransportFaults{Latency: 1, MaxLatency: 30 * time.Millisecond})
	cl := &http.Client{Transport: tr}
	start := time.Now()
	resp, err := cl.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if time.Since(start) < time.Millisecond {
		t.Fatal("latency fault added no delay")
	}
}

// TestFaultFSCut: a cut FS fails every mutating call, on the FS and on
// handles it opened before the cut, while reads still work; a fresh
// FS over the same directory and sites works normally.
func TestFaultFSCut(t *testing.T) {
	dir := t.TempDir()
	in := New(5)
	fs := NewFaultFS(in, "d", FSFaults{}, nil)
	path := filepath.Join(dir, "x")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("before")); err != nil {
		t.Fatal(err)
	}

	fs.Cut()
	in.Heal() // a cut is not a fault window: healing does not undo it
	mutations := map[string]error{
		"mkdir":       fs.MkdirAll(filepath.Join(dir, "sub"), 0o755),
		"write-file":  fs.WriteFile(filepath.Join(dir, "w"), []byte("w"), 0o644),
		"rename":      fs.Rename(path, filepath.Join(dir, "moved")),
		"remove":      fs.Remove(path),
		"truncate":    fs.Truncate(path, 0),
		"sync-dir":    fs.SyncDir(dir),
		"handle-sync": f.Sync(),
	}
	_, mutations["handle-write"] = f.Write([]byte("after"))
	_, mutations["open-write"] = fs.OpenFile(path, os.O_RDWR, 0)
	_, mutations["open-create"] = fs.OpenFile(filepath.Join(dir, "new"), os.O_CREATE|os.O_WRONLY, 0o644)
	_, mutations["create-temp"] = fs.CreateTemp(dir, "t*")
	for op, err := range mutations {
		if !errors.Is(err, ErrInjected) {
			t.Errorf("%s on a cut FS: %v, want ErrInjected", op, err)
		}
	}
	f.Close()

	if got, err := fs.ReadFile(path); err != nil || string(got) != "before" {
		t.Fatalf("read through the cut FS: %q %v", got, err)
	}
	if entries, err := fs.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("a cut FS changed the directory or cannot list it: %v %v", entries, err)
	}
	r, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		t.Fatalf("read-only open through the cut FS: %v", err)
	}
	r.Close()

	fresh := NewFaultFS(in, "d", FSFaults{}, nil)
	if err := fresh.WriteFile(path, []byte("after"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Rename(path, filepath.Join(dir, "moved")); err != nil {
		t.Fatal(err)
	}
	if err := fresh.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "moved")); err != nil || string(got) != "after" {
		t.Fatalf("fresh FS over the cut one's directory: %q %v", got, err)
	}
}
