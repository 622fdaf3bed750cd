package cluster

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newTestRegistry() (*Registry, *fakeClock) {
	clk := &fakeClock{t: time.UnixMilli(1_700_000_000_000)}
	r := NewRegistry(3*time.Second, 10*time.Second)
	r.SetClock(clk.now)
	return r, clk
}

func TestRegistryLivenessStates(t *testing.T) {
	r, clk := newTestRegistry()
	r.Observe(Heartbeat{Node: "c1", Addr: "http://a:1", Epoch: 4, Rows: 100})

	m, ok := r.Lookup("c1")
	if !ok || m.State != StateAlive || m.Addr != "http://a:1" || m.Epoch != 4 || m.Rows != 100 {
		t.Fatalf("fresh heartbeat: %+v ok=%v", m, ok)
	}
	clk.advance(5 * time.Second)
	if m, _ = r.Lookup("c1"); m.State != StateSuspect {
		t.Fatalf("after 5s: state %v, want suspect", m.State)
	}
	clk.advance(6 * time.Second)
	if m, _ = r.Lookup("c1"); m.State != StateDead {
		t.Fatalf("after 11s: state %v, want dead", m.State)
	}
	// A returning shard is alive again, possibly at a new address.
	r.Observe(Heartbeat{Node: "c1", Addr: "http://b:2", Epoch: 9, Rows: 120})
	if m, _ = r.Lookup("c1"); m.State != StateAlive || m.Addr != "http://b:2" || m.Epoch != 9 {
		t.Fatalf("after return: %+v", m)
	}
	// Ignored inputs.
	r.Observe(Heartbeat{Node: ""})
	if got := len(r.Members()); got != 1 {
		t.Fatalf("empty-node heartbeat created a member: %d members", got)
	}
}

func TestRegistryHTTPRoundTrip(t *testing.T) {
	r, _ := newTestRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	hb := &Heartbeater{Node: "c1", Addr: "http://shard:8477", Targets: []string{srv.URL},
		Source: func() (int, int) { return 3, 42 }}
	if err := hb.Beat(); err != nil {
		t.Fatal(err)
	}
	recs, err := FetchMembers(nil, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Node != "c1" || recs[0].Addr != "http://shard:8477" ||
		recs[0].Epoch != 3 || recs[0].Rows != 42 {
		t.Fatalf("members after heartbeat: %+v", recs)
	}

	// Bad frames bounce with 400, not a panic or a poisoned table.
	resp, err := srv.Client().Post(srv.URL+"/cluster/v1/heartbeat", ContentTypeHeartbeat,
		bytes.NewReader([]byte("XHB1garbage")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage heartbeat: %s, want 400", resp.Status)
	}
}

func TestHeartbeaterLoop(t *testing.T) {
	r, _ := newTestRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	hb := &Heartbeater{Node: "c1", Addr: "http://shard:1", Targets: []string{srv.URL},
		Interval: 10 * time.Millisecond}
	hb.Start()
	defer hb.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := r.Lookup("c1"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heartbeat loop never announced the shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	hb.Stop() // idempotent
}
