package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Ledger is the traced run's per-layer account. Every public call into a
// layer is timed from outside, here in the benchmark, and its duration
// is added to the layer metric named for it. Leaf spans do not overlap,
// so their sum plus the unattributed remainder is the traced wall time.
// Parent spans (a fan-in round that contains export, decode and merge
// calls) are reported beside the leaves but not summed.
type Ledger struct {
	start   time.Time
	order   []string
	leaf    map[string]time.Duration
	parent  map[string]time.Duration
	calls   map[string]int
	counts  map[string]int64
	wall    time.Duration
	stopped bool
}

func newLedger() *Ledger {
	return &Ledger{
		start:  time.Now(),
		leaf:   make(map[string]time.Duration),
		parent: make(map[string]time.Duration),
		calls:  make(map[string]int),
		counts: make(map[string]int64),
	}
}

func (l *Ledger) note(name string) {
	if _, ok := l.calls[name]; !ok {
		l.order = append(l.order, name)
	}
	l.calls[name]++
}

// Add books d to the leaf metric name.
func (l *Ledger) Add(name string, d time.Duration) {
	l.note(name)
	l.leaf[name] += d
}

// Time runs f and books its duration to the leaf metric name.
func (l *Ledger) Time(name string, f func()) {
	t := time.Now()
	f()
	l.Add(name, time.Since(t))
}

// Parent runs f, whose body books leaf spans of its own, and records
// its whole duration under name without adding it to the leaf sum.
func (l *Ledger) Parent(name string, f func()) {
	t := time.Now()
	f()
	l.note(name)
	l.parent[name] += time.Since(t)
}

// Count adds n to the counter name.
func (l *Ledger) Count(name string, n int64) { l.counts[name] += n }

// Stop fixes the traced wall time; calls booked afterwards still count
// as leaves but no longer extend the wall.
func (l *Ledger) Stop() {
	if !l.stopped {
		l.wall = time.Since(l.start)
		l.stopped = true
	}
}

// Wall returns the traced wall time (Stop must have been called).
func (l *Ledger) Wall() time.Duration { return l.wall }

// Unattributed returns the traced wall time not covered by a leaf span.
func (l *Ledger) Unattributed() time.Duration {
	var sum time.Duration
	for _, d := range l.leaf {
		sum += d
	}
	return l.wall - sum
}

// Seconds returns a leaf or parent metric in seconds (0 if never booked).
func (l *Ledger) Seconds(name string) float64 {
	if d, ok := l.parent[name]; ok {
		return d.Seconds()
	}
	return l.leaf[name].Seconds()
}

// Print writes the ledger, one layer metric per line in first-call
// order, each with its share of the traced wall time.
func (l *Ledger) Print(w io.Writer, workload string) {
	wall := l.wall.Seconds()
	fmt.Fprintf(w, "ledger %s: traced_wall_s=%.4f\n", workload, wall)
	for _, name := range l.order {
		kind, d := "leaf  ", l.leaf[name]
		if p, ok := l.parent[name]; ok {
			kind, d = "parent", p
		}
		fmt.Fprintf(w, "  %s %-28s %9.4f s %6.2f%%  calls=%d\n", kind, name, d.Seconds(), 100*d.Seconds()/wall, l.calls[name])
	}
	u := l.Unattributed().Seconds()
	fmt.Fprintf(w, "         %-28s %9.4f s %6.2f%%\n", "unattributed_s", u, 100*u/wall)
	for _, name := range sortedKeys(l.counts) {
		fmt.Fprintf(w, "  count  %-28s %d\n", name, l.counts[name])
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
