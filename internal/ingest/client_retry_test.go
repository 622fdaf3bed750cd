package ingest

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"crossborder/internal/chaos"
)

// flakyTransport injects the two transient failure shapes a retrying
// client must survive, on a seeded schedule: a reset never reaches the
// server, so the retry is the first delivery; a lost response comes
// after the server applied the request, so the retry must be deduped
// by sequence number, not applied twice.
func flakyTransport(next http.RoundTripper) (*chaos.Injector, *chaos.Transport) {
	inj := chaos.New(0xF1A4)
	return inj, chaos.NewTransport(inj, "client", chaos.TransportFaults{Reset: 0.2, LostResponse: 0.15}, next)
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

	inj, rt := flakyTransport(ts.Client().Transport)
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
	fired := map[string]int64{}
	for _, sr := range inj.Report() {
		fired[sr.Site] = sr.Fired
	}
	if fired["client/net.reset"] == 0 || fired["client/net.lost-response"] == 0 {
		t.Fatalf("injection did not exercise both failure shapes: %+v", inj.Report())
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

	_, rt := flakyTransport(ts.Client().Transport)
	cl := &Client{
		Base:   ts.URL,
		HTTP:   &http.Client{Transport: rt},
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
