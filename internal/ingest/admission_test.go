package ingest

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newLimitedServer(t *testing.T, lim Limits) (*Collector, *httptest.Server, map[int32][]Event) {
	t.Helper()
	world, evs, _ := rig(t)
	c := NewCollector(world, Config{EpochEvents: 1 << 20, Workers: 2})
	srv := httptest.NewServer(NewServer(c, WithLimits(lim)))
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, srv, evs
}

func metricsBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// TestUploadAdmissionRejectsOverload saturates a MaxInFlight=1 server
// with one upload whose body never finishes, then asserts a concurrent
// upload is turned away immediately with 429 + Retry-After — admission
// control sheds load instead of queueing it on the ingest lock.
func TestUploadAdmissionRejectsOverload(t *testing.T) {
	_, srv, evs := newLimitedServer(t, Limits{MaxInFlight: 1})

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/upload", pr)
		req.Header.Set("Content-Type", ContentTypeNDJSON)
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	// Wait until the stalled upload holds the admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(metricsBody(t, srv.URL), "collectd_inflight_uploads 1") {
		if time.Now().After(deadline) {
			t.Fatal("stalled upload never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(srv.URL+"/v1/upload", ContentTypeNDJSON, strings.NewReader(""))
	if err != nil {
		t.Fatalf("second upload: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated upload = %d %s, want 429", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	if !strings.Contains(string(raw), ErrOverloaded.Error()) {
		t.Fatalf("429 body %q does not name the overload", raw)
	}
	if !strings.Contains(metricsBody(t, srv.URL), "collectd_overload_rejected_total 1") {
		t.Fatal("overload rejection not counted in /metrics")
	}

	// Release the stalled upload: the slot frees and uploads flow again.
	var uid int32 = -1
	for u := range evs {
		if uid < 0 || u < uid {
			uid = u
		}
	}
	pw.CloseWithError(io.ErrClosedPipe)
	<-done
	cl := &Client{Base: srv.URL, Retry: &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}}
	if _, err := cl.Upload(Batch{User: uid, Seq: 0, Events: evs[uid][:3]}); err != nil {
		t.Fatalf("upload after release: %v", err)
	}
}

// TestUploadAdmissionUnderContention: a fleet of retrying uploaders all
// land their batches through a single admission slot — backpressure
// slows clients down, it never loses data.
func TestUploadAdmissionUnderContention(t *testing.T) {
	c, srv, evs := newLimitedServer(t, Limits{MaxInFlight: 1})

	uids := make([]int32, 0, len(evs))
	for uid := range evs {
		uids = append(uids, uid)
	}
	if len(uids) > 8 {
		uids = uids[:8]
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(uids))
	for _, uid := range uids {
		wg.Add(1)
		go func(uid int32) {
			defer wg.Done()
			cl := &Client{Base: srv.URL, Retry: &RetryPolicy{MaxAttempts: 100, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}}
			n := len(evs[uid])
			if n > 40 {
				n = 40
			}
			if _, err := cl.Upload(Batch{User: uid, Seq: 0, Events: evs[uid][:n]}); err != nil {
				errs <- err
			}
		}(uid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("contended upload: %v", err)
	}
	for _, uid := range uids {
		want := len(evs[uid])
		if want > 40 {
			want = 40
		}
		if got := int(c.nextSeqOf(uid)); got != want {
			t.Fatalf("user %d landed %d events, want %d", uid, got, want)
		}
	}
}

// TestUploadBodyCap: a body over MaxUploadBytes is refused with 413,
// not read to completion.
func TestUploadBodyCap(t *testing.T) {
	_, srv, evs := newLimitedServer(t, Limits{MaxUploadBytes: 128})
	var uid int32 = -1
	for u := range evs {
		if uid < 0 || u < uid {
			uid = u
		}
	}
	// A real encoded batch whose event stream blows past the cap while
	// the header still fits — the overflow hits mid-decode.
	var buf bytes.Buffer
	if err := EncodeNDJSON(&buf, Batch{User: uid, Seq: 0, Events: evs[uid][:50]}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if buf.Len() <= 128 {
		t.Fatalf("test batch only %d bytes; cannot exceed the cap", buf.Len())
	}
	resp, err := http.Post(srv.URL+"/v1/upload", ContentTypeNDJSON, &buf)
	if err != nil {
		t.Fatalf("oversized upload: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload = %d, want 413", resp.StatusCode)
	}
}

// TestUploadDeadlineCutsSlowBody: with UploadTimeout set, a client
// trickling its body forever is cut off by the per-request connection
// deadline instead of holding an admission slot indefinitely.
func TestUploadDeadlineCutsSlowBody(t *testing.T) {
	_, srv, _ := newLimitedServer(t, Limits{MaxInFlight: 1, UploadTimeout: 150 * time.Millisecond})

	// Trickle whitespace forever: each read succeeds, so only the
	// absolute per-request deadline can end this upload. (The trickle
	// also keeps the client's body write loop unblocked so it notices
	// the server hanging up — a Read parked forever on an idle pipe
	// would deadlock the transport's error path.)
	pr, pw := io.Pipe()
	go func() {
		for {
			if _, err := pw.Write([]byte("\n")); err != nil {
				return // transport closed the body: request is over
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/upload", pr)
	req.Header.Set("Content-Type", ContentTypeNDJSON)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("never-ending body got a 200")
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slow-body upload held the server %v; deadline did not fire", elapsed)
	}

	// The slot must be free again: a healthy upload goes straight through.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(metricsBody(t, srv.URL), "collectd_inflight_uploads 0") {
		if time.Now().After(deadline) {
			t.Fatal("admission slot never released after deadline cut")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUploadBodyDeclaredLength: the binary upload body is read to EOF
// whatever Content-Length says. A body shorter than declared is decoded
// as it arrived (whole: accepted; cut: 400), a longer one is read in
// full, and a body over MaxUploadBytes is still refused with 413,
// whether its length was declared or understated.
func TestUploadBodyDeclaredLength(t *testing.T) {
	world, evs, _ := rig(t)
	var uid int32 = -1
	for u := range evs {
		if uid < 0 || u < uid {
			uid = u
		}
	}
	c := NewCollector(world, Config{EpochEvents: 1 << 20, Workers: 2})
	t.Cleanup(c.Close)
	const bodyCap = 4 << 10
	h := NewServer(c, WithLimits(Limits{MaxUploadBytes: bodyCap}))
	post := func(body []byte, declared int64) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentTypeBinary)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	stream := evs[uid]
	first := EncodeBinary(Batch{User: uid, Seq: 0, Events: stream[:3]})
	second := EncodeBinary(Batch{User: uid, Seq: 3, Events: stream[3:6]})
	for _, tc := range []struct {
		name     string
		body     []byte
		declared int64
		want     int
	}{
		{"shorter than declared, whole", first, int64(len(first)) + 100, http.StatusOK},
		{"shorter than declared, cut", second[:len(second)-2], int64(len(second)), http.StatusBadRequest},
		{"longer than declared", second, int64(len(second)) / 2, http.StatusOK},
		{"unknown length", EncodeBinary(Batch{User: uid, Seq: 6, Events: stream[6:9]}), -1, http.StatusOK},
	} {
		if got := post(tc.body, tc.declared); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := c.nextSeqOf(uid); got != 9 {
		t.Fatalf("next seq = %d after the accepted uploads, want 9", got)
	}

	big := EncodeBinary(Batch{User: uid, Seq: 9, Events: stream[9:]})
	if len(big) <= bodyCap {
		t.Fatalf("test batch only %d bytes; cannot exceed the cap", len(big))
	}
	for _, declared := range []int64{int64(len(big)), 100, -1} {
		if got := post(big, declared); got != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized body declared %d: status %d, want 413", declared, got)
		}
	}

	// A forged Content-Length sizes nothing beyond the cap.
	buf, err := ReadBody(strings.NewReader("abc"), 1<<40, bodyCap)
	if err != nil || string(buf) != "abc" || cap(buf) > bodyCap+1 {
		t.Fatalf("ReadBody under a forged length = %q (cap %d), %v", buf, cap(buf), err)
	}
}
