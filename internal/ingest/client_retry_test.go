package ingest

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyRT injects the two transient failure shapes a retrying client
// must survive, on a deterministic schedule:
//   - "reset": the request never reaches the server (connection reset
//     on send) — nothing applied, the retry is the first delivery;
//   - "lost": the server processes the request but the response is
//     dropped (timeout) — the events ARE applied, and the retry must be
//     deduped by sequence number, not applied twice.
type flakyRT struct {
	next http.RoundTripper
	n    atomic.Int64

	resets atomic.Int64
	losses atomic.Int64
}

var errInjectedReset = errors.New("injected: connection reset by peer")
var errInjectedTimeout = errors.New("injected: timeout awaiting response headers")

func (f *flakyRT) RoundTrip(req *http.Request) (*http.Response, error) {
	k := f.n.Add(1)
	switch {
	case k%5 == 2:
		f.resets.Add(1)
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errInjectedReset
	case k%7 == 3:
		resp, err := f.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body.Close()
		f.losses.Add(1)
		return nil, errInjectedTimeout
	default:
		return f.next.RoundTrip(req)
	}
}

// TestClientRetryExactlyOnce: a full replay through a transport that
// keeps resetting connections and dropping responses ends with the
// collector holding each event exactly once — same rows, same stats as
// an unharassed run — with the lost-response re-sends visible only as
// duplicate counts.
func TestClientRetryExactlyOnce(t *testing.T) {
	world, evs, _ := rig(t)

	ref := NewCollector(world, Config{EpochEvents: 251, Workers: 2})
	defer ref.Close()
	want := ingestAll(t, ref, evs, 137)

	c := NewCollector(world, Config{EpochEvents: 251, Workers: 2})
	defer c.Close()
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()

	rt := &flakyRT{next: ts.Client().Transport}
	cl := &Client{
		Base:   ts.URL,
		HTTP:   &http.Client{Transport: rt},
		Binary: true,
		Retry:  &RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}
	stats, err := cl.Replay(evs, 137, 1)
	if err != nil {
		t.Fatalf("replay through flaky transport: %v", err)
	}
	if _, _, err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if rt.resets.Load() == 0 || rt.losses.Load() == 0 {
		t.Fatalf("injection did not exercise both failure shapes: resets=%d losses=%d",
			rt.resets.Load(), rt.losses.Load())
	}

	got := c.Snapshot()
	assertSameLive(t, got, want)
	// Exactly-once accounting: accepted events equal the stream total;
	// every lost-response re-send shows up as duplicates instead.
	if int(c.mEvents.Load()) != stats.Events {
		t.Fatalf("accepted %d events, stream has %d", c.mEvents.Load(), stats.Events)
	}
	if c.mDupEvents.Load() == 0 {
		t.Fatal("no duplicates recorded despite lost responses")
	}
}

// TestClientNoRetryFailsFast: without a policy the first injected fault
// surfaces immediately — retries are strictly opt-in.
func TestClientNoRetryFailsFast(t *testing.T) {
	world, evs, _ := rig(t)
	c := NewCollector(world, Config{EpochEvents: 1 << 20, Workers: 2})
	defer c.Close()
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()

	cl := &Client{
		Base:   ts.URL,
		HTTP:   &http.Client{Transport: &flakyRT{next: ts.Client().Transport}},
		Binary: true,
	}
	var failed bool
	for uid, stream := range evs {
		if _, err := cl.Upload(Batch{User: uid, Seq: 0, Events: stream[:1]}); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("no upload failed through the flaky transport without retries")
	}
}
