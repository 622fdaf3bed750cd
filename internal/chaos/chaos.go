// Package chaos is the deterministic fault-injection layer behind the
// cluster's robustness tests. It exposes two seams the production code
// already threads: Transport wraps an http.RoundTripper and injects the
// partial network failures crowdsourced uploads actually see (latency,
// connection resets, responses lost after the server applied the
// request, truncated or corrupted bodies, 5xx bursts), and FaultFS
// wraps the filesystem under the WAL and checkpoint writer (short
// writes, fsync failures, torn renames). FaultFS.Cut severs one FS from
// the disk the way kill -9 severs a process: every later mutating call
// fails, so whatever the abandoned writer still tries never lands.
//
// Every site is one named injection point such as "c0/fs.short-write",
// and it fires on a fixed draw budget: Hit(p) fires exactly once in
// each window of ⌈1/p⌉ draws. Where in the window it fires is drawn
// from a splitmix64 stream keyed by (seed, site), so two injectors
// built from the same seed produce identical per-site decision
// sequences, and a chaos run is reproduced by its seed alone. A site
// that has drawn one full window has fired, however fast or slow the
// run was; with concurrent callers the interleaving decides which
// request absorbs which draw, never how many fire.
//
// Heal flips the injector into a no-fault mode without disturbing
// site streams, so a harness can run a fault window, heal, drive the
// system back to convergence, and assert the healed state matches a
// run that never saw a fault. Report returns per-site window, draw and
// fire counts for the harness's "every site drew its window"
// assertion and the CHAOS_report.json artifact.
package chaos

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrInjected is wrapped by every error the chaos layer fabricates, so
// tests can tell an injected fault from a real one.
var ErrInjected = errors.New("chaos: injected fault")

// Injector hands out deterministic fault streams by site name.
type Injector struct {
	seed   uint64
	healed atomic.Bool

	mu    sync.Mutex
	sites map[string]*Site
}

// New builds an injector. Equal seeds reproduce equal per-site
// decision streams.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, sites: make(map[string]*Site)}
}

// Seed returns the injector's seed.
func (in *Injector) Seed() uint64 { return in.seed }

// Site returns the named injection point, creating it on first use.
// The site's stream seed is a splitmix64-style finalizer over the
// injector seed and the site name, so distinct sites get disjoint
// streams.
func (in *Injector) Site(name string) *Site {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.sites[name]
	if s == nil {
		s = &Site{in: in, name: name, state: siteSeed(in.seed, name)}
		in.sites[name] = s
	}
	return s
}

// Heal disables every fault at every site, present and future. Site
// streams are left untouched; Hit simply stops consuming them.
func (in *Injector) Heal() { in.healed.Store(true) }

// Healed reports whether Heal has been called.
func (in *Injector) Healed() bool { return in.healed.Load() }

// SiteReport is one site's row in Report. Window is the draw budget
// of the site's last Hit (0 before its first draw).
type SiteReport struct {
	Site   string `json:"site"`
	Window int64  `json:"window"`
	Draws  int64  `json:"draws"`
	Fired  int64  `json:"fired"`
}

// Covered reports whether the site has drawn at least one full window,
// and therefore fired.
func (r SiteReport) Covered() bool { return r.Window > 0 && r.Draws >= r.Window }

// Report returns per-site decision and fire counts, sorted by site
// name.
func (in *Injector) Report() []SiteReport {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]SiteReport, 0, len(in.sites))
	for _, s := range in.sites {
		s.mu.Lock()
		out = append(out, SiteReport{Site: s.name, Window: s.window, Draws: s.draws, Fired: s.fired})
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Site is one named injection point with its own splitmix64 stream.
type Site struct {
	in   *Injector
	name string

	mu    sync.Mutex
	state uint64
	draws int64
	fired int64
	// The open window: its length, the draws left in it, and the
	// offset from its end at which it fires.
	window, left, fireAt int64
}

// Name returns the site's name.
func (s *Site) Name() string { return s.name }

// next advances the site's splitmix64 stream. Called with s.mu held.
func (s *Site) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hit draws the site's next decision and reports whether a fault with
// rate p fires: exactly one draw in each window of ⌈1/p⌉ fires, at a
// position drawn from the site's stream when the window opens. A new
// rate opens a new window. A healed injector never fires and does not
// consume the stream.
func (s *Site) Hit(p float64) bool {
	if p <= 0 || s.in.healed.Load() {
		return false
	}
	w := window(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.left == 0 || w != s.window {
		s.window, s.left = w, w
		s.fireAt = int64(s.next() % uint64(w))
	}
	s.left--
	s.draws++
	hit := s.left == s.fireAt
	if hit {
		s.fired++
	}
	return hit
}

// window is the draw budget ⌈1/p⌉ of rate p.
func window(p float64) int64 {
	if p >= 1 {
		return 1
	}
	return int64(math.Ceil(1 / p))
}

// Intn draws a fault magnitude in [0, n) from the site's stream —
// the injected latency, the truncation point, the corrupted byte.
func (s *Site) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.next() % uint64(n))
}

// siteSeed mixes the injector seed with the site name, mirroring the
// pack-private rng derivation in internal/scenario.
func siteSeed(seed uint64, name string) uint64 {
	z := seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		z = (z ^ uint64(name[i])) * 0xbf58476d1ce4e5b9
	}
	z = (z ^ (z >> 30)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
