package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"crossborder"
	"crossborder/internal/ingest"
	"crossborder/internal/scenario"
)

// size is one workload's input size: the world scale and the mean page
// visits per simulated user.
type size struct {
	Scale  float64
	Visits int
}

// inputs are what the load generator sends: the world the collectors
// classify against and the captured per-user event streams, cut into
// upload batches in replay order (ascending user, then sequence).
type inputs struct {
	seed     int64
	size     size
	world    *scenario.Scenario
	batches  []ingest.Batch
	nEvents  int
	nVisits  int
	worldDur *phaseClock
	capture  time.Duration
}

// uploadBatchEvents is the events per upload: small enough that every
// workload run makes well over a thousand uploads.
const uploadBatchEvents = 128

// buildInputs builds the world and captures the browsing study for one
// seed and size, exactly as collectd and crawlsim -replay do.
func buildInputs(ctx context.Context, seed int64, sz size) (*inputs, error) {
	clock := newPhaseClock()
	world, err := scenario.BuildWorldContext(ctx, scenario.Params{
		Seed: seed, Scale: sz.Scale, VisitsPerUser: sz.Visits, Progress: clock.observe,
	})
	if err != nil {
		return nil, fmt.Errorf("build world: %w", err)
	}
	clock.finish()
	t := time.Now()
	events := ingest.RecordSimulation(world, sz.Visits, 0)
	in := &inputs{seed: seed, size: sz, world: world, worldDur: clock, capture: time.Since(t)}
	users := make([]int32, 0, len(events))
	for u := range events {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	for _, u := range users {
		evs := events[u]
		for off := 0; off < len(evs); off += uploadBatchEvents {
			hi := min(off+uploadBatchEvents, len(evs))
			in.batches = append(in.batches, ingest.Batch{User: u, Seq: uint64(off), Events: evs[off:hi]})
		}
		in.nEvents += len(evs)
		for _, ev := range evs {
			if ev.Kind == ingest.KindVisit {
				in.nVisits++
			}
		}
	}
	return in, nil
}

// phaseClock turns a scenario PhaseEvent stream into per-phase
// durations that tile the call: each phase owns the time from the
// previous phase's last event (or the call start) to its own last
// event, so work a phase does before its first event is still its own.
type phaseClock struct {
	from, lastAt time.Time
	cur          scenario.Phase
	order        []scenario.Phase
	spans        map[scenario.Phase]time.Duration
}

func newPhaseClock() *phaseClock {
	now := time.Now()
	return &phaseClock{from: now, lastAt: now, spans: make(map[scenario.Phase]time.Duration)}
}

func (p *phaseClock) observe(ev scenario.PhaseEvent) {
	now := time.Now()
	if ev.Phase != p.cur {
		p.close()
		p.cur = ev.Phase
		p.order = append(p.order, ev.Phase)
	}
	p.lastAt = now
}

func (p *phaseClock) close() {
	if p.cur != "" {
		p.spans[p.cur] += p.lastAt.Sub(p.from)
		p.from = p.lastAt
	}
}

func (p *phaseClock) finish() { p.close(); p.cur = "" }

// book adds every phase to the ledger as scenario.<phase>_s.
func (p *phaseClock) book(l *Ledger) {
	for _, ph := range p.order {
		l.Add("scenario."+string(ph)+"_s", p.spans[ph])
	}
}

// digests hashes rendered artifacts; the correctness gates compare these.
func digests(texts []string) []string {
	out := make([]string, len(texts))
	for i, t := range texts {
		sum := sha256.Sum256([]byte(t))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// reference returns the artifact digests of a batch study at the given
// seed and size, built with opts and cached under cacheDir ("" = no
// cache). It runs outside every timed region.
func reference(ctx context.Context, cacheDir, route string, seed int64, sz size, opts ...crossborder.Option) ([]string, error) {
	var path string
	if cacheDir != "" {
		path = filepath.Join(cacheDir, fmt.Sprintf("%s-seed%d-scale%g-visits%d.txt", route, seed, sz.Scale, sz.Visits))
		if raw, err := os.ReadFile(path); err == nil {
			if d := strings.Fields(string(raw)); len(d) == len(crossborder.ExperimentIDs()) {
				return d, nil
			}
		}
	}
	opts = append([]crossborder.Option{
		crossborder.WithSeed(seed), crossborder.WithScale(sz.Scale), crossborder.WithVisitsPerUser(sz.Visits),
	}, opts...)
	st, err := crossborder.New(ctx, opts...)
	if err != nil {
		return nil, fmt.Errorf("reference study: %w", err)
	}
	texts, err := st.RenderAllContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("reference render: %w", err)
	}
	d := digests(texts)
	if path != "" {
		if err := os.MkdirAll(cacheDir, 0o755); err != nil {
			return nil, err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, []byte(strings.Join(d, "\n")+"\n"), 0o644); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, path); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// checkDigests reports the first artifact whose digest differs. A nil
// want (the growth report, which builds no reference) checks nothing.
func checkDigests(route string, got, want []string) error {
	if want == nil {
		return nil
	}
	ids := crossborder.ExperimentIDs()
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d artifacts, reference has %d", route, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: artifact %s differs from the batch reference", route, ids[i])
		}
	}
	return nil
}
