package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"crossborder/internal/ingest"
)

// counter is the load generator's failure accounting: every request any
// of its clients sends is attempted, and transport errors and non-2xx
// responses (304 aside, which the fan-in's If-None-Match expects) are
// failed. Clients run without a RetryPolicy, so no retry hides one.
type counter struct {
	rt                http.RoundTripper
	attempted, failed atomic.Int64
}

func (c *counter) RoundTrip(r *http.Request) (*http.Response, error) {
	c.attempted.Add(1)
	resp, err := c.rt.RoundTrip(r)
	if err != nil || (resp.StatusCode >= 300 && resp.StatusCode != http.StatusNotModified) {
		c.failed.Add(1)
	}
	return resp, err
}

// newCounter returns a counting HTTP client over a private keep-alive
// transport, and a func that closes the transport's idle connections.
func newCounter() (*counter, *http.Client, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true, IdleConnTimeout: time.Minute}
	c := &counter{rt: tr}
	return c, &http.Client{Transport: c, Timeout: time.Minute}, tr.CloseIdleConnections
}

// collectdLimits are collectd's default overload limits.
var collectdLimits = ingest.Limits{MaxInFlight: 64, UploadTimeout: 30 * time.Second}

// loopback is an HTTP server on a loopback port.
type loopback struct {
	srv  *http.Server
	done chan error
	URL  string
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute},
		done: make(chan error, 1),
		URL:  "http://" + ln.Addr().String(),
	}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close shuts the server down and waits for its serve loop to exit.
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	lb.srv.Shutdown(ctx)
	<-lb.done
}

// queryPaths is the reader's rotation.
var queryPaths = []string{"/v1/stats", "/v1/experiments/fig7", "/v1/experiments/fig8", "/v1/experiments/table2"}

// readerRate is the reader's fixed query rate, in queries per second.
const readerRate = 20

// httpQuery issues the i-th query of the rotation over HTTP.
func httpQuery(hc *http.Client, base string, i int) error {
	resp, err := hc.Get(base + queryPaths[i%len(queryPaths)])
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("query %s: %w", queryPaths[i%len(queryPaths)], err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query %s: %s", queryPaths[i%len(queryPaths)], resp.Status)
	}
	return nil
}

// handlerQuery issues the i-th query of the rotation in-process, through
// the handler's ServeHTTP, for the traced runs.
func handlerQuery(h http.Handler, i int) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, queryPaths[i%len(queryPaths)], nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("query %s: status %d", queryPaths[i%len(queryPaths)], rec.Code)
	}
	return nil
}

// runReader is the open-loop reader: once ready reports true it issues
// query i at start + i/readerRate, whatever happened to earlier queries,
// and times each from when it was due. It returns when stop closes.
func runReader(stop <-chan struct{}, ready func() bool, query func(i int) error) (lat []float64, maxLateMs float64, err error) {
	for !ready() {
		select {
		case <-stop:
			return nil, 0, nil
		case <-time.After(5 * time.Millisecond):
		}
	}
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / readerRate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				return lat, maxLateMs, err
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return lat, maxLateMs, err
			default:
			}
		}
		maxLateMs = max(maxLateMs, ms(time.Since(due)))
		if qerr := query(i); qerr != nil && err == nil {
			err = qerr
		}
		lat = append(lat, ms(time.Since(due)))
	}
}

// upload is the closed-loop uploader: it sends every batch in replay
// order to the client route picks and waits for each acknowledgement.
// sawRows flips once an acknowledgement reports committed rows.
func upload(batches []ingest.Batch, route func(user int32) *ingest.Client, sawRows *atomic.Bool) (latMs []float64, accepted int, err error) {
	latMs = make([]float64, 0, len(batches))
	for _, b := range batches {
		t := time.Now()
		res, err := route(b.User).Upload(b)
		latMs = append(latMs, ms(time.Since(t)))
		if err != nil {
			return latMs, accepted, fmt.Errorf("upload user %d seq %d: %w", b.User, b.Seq, err)
		}
		accepted += res.Accepted
		if res.Rows > 0 {
			sawRows.Store(true)
		}
	}
	if accepted == 0 {
		return latMs, 0, errors.New("upload: nothing accepted")
	}
	return latMs, accepted, nil
}

// fetchArtifacts reads all 20 artifacts, in paper order, over HTTP.
func fetchArtifacts(cl *ingest.Client, ids []string) ([]string, error) {
	texts := make([]string, len(ids))
	for i, id := range ids {
		text, _, err := cl.Artifact(id)
		if err != nil {
			return nil, err
		}
		texts[i] = text
	}
	return texts, nil
}
