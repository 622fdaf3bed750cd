package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"crossborder"
)

// passResult is one untraced pass of a workload.
type passResult struct {
	// intake is the time from the first event in to the last event
	// accepted; events is how many were accepted in it.
	intake time.Duration
	events int
	// answer is the time from the last event accepted until all 20
	// artifacts are readable.
	answer time.Duration
	// retainedMB is the live heap after the timed part minus the live
	// heap at the end of set-up, both after a forced GC.
	retainedMB float64
	// Live workloads only: per-upload and per-query latencies (queries
	// timed from when they were due), how late the reader ran, the
	// freshness and recovery times.
	uploadMs, queryMs []float64
	lateMs            float64
	fresh, recover    time.Duration
	attempted, failed int64
}

// liveHeapMB forces a GC and returns the live heap in MB. The second GC
// empties the sync.Pool victim caches the first one only demotes.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func studyOptions(in *inputs) []crossborder.Option {
	return []crossborder.Option{
		crossborder.WithSeed(in.seed),
		crossborder.WithScale(in.size.Scale),
		crossborder.WithVisitsPerUser(in.size.Visits),
	}
}

// checkStudyCounts pins the batch dataset to the captured input: the
// study must have classified exactly the captured visits and requests.
func checkStudyCounts(st *crossborder.Study, in *inputs) error {
	s := st.Table1().Stats
	if s.FirstPartyVisits != in.nVisits || s.ThirdPartyReqs != int64(in.nEvents-in.nVisits) {
		return fmt.Errorf("batch: dataset holds %d visits and %d requests, the capture %d and %d",
			s.FirstPartyVisits, s.ThirdPartyReqs, in.nVisits, in.nEvents-in.nVisits)
	}
	return nil
}

// batchPass is one untraced batch reproduction: crossborder.New with
// the default in-memory store, then RenderAll.
func batchPass(ctx context.Context, in *inputs, ref []string) (passResult, error) {
	base := liveHeapMB()
	t0 := time.Now()
	st, err := crossborder.New(ctx, studyOptions(in)...)
	if err != nil {
		return passResult{}, err
	}
	t1 := time.Now()
	texts, err := st.RenderAllContext(ctx)
	if err != nil {
		return passResult{}, err
	}
	t2 := time.Now()
	r := passResult{intake: t1.Sub(t0), events: in.nEvents, answer: t2.Sub(t1), attempted: 1}
	r.retainedMB = liveHeapMB() - base
	if err := checkDigests("batch", digests(texts), ref); err != nil {
		return r, err
	}
	if err := checkStudyCounts(st, in); err != nil {
		return r, err
	}
	runtime.KeepAlive(st)
	return r, nil
}

// batchTrace drives the same reproduction through the layers one public
// call at a time: the build phases from the WithProgress stream, the
// three geolocation joins, each artifact in paper order, then rendering.
func batchTrace(ctx context.Context, in *inputs, ref []string) (*Ledger, error) {
	l := newLedger()
	clock := newPhaseClock()
	st, err := crossborder.New(ctx, append(studyOptions(in), crossborder.WithProgress(clock.observe))...)
	if err != nil {
		return nil, err
	}
	clock.finish()
	clock.book(l)
	st.Progress = nil // later runner progress must not reopen a build phase
	l.Time("core.analyze_s", st.Precompute)
	texts, err := traceArtifacts(ctx, l, st.Suite)
	if err != nil {
		return nil, err
	}
	l.Stop()
	ds := st.Scenario().Dataset
	l.Count("classify.rows", int64(ds.Len()))
	l.Count("store.resident_bytes", ds.Store.Footprint().ResidentBytes)
	if err := checkDigests("batch", digests(texts), ref); err != nil {
		return l, err
	}
	return l, checkStudyCounts(st, in)
}
