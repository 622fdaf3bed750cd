package cluster

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"time"

	"crossborder/internal/ingest"
)

// Client is the ring-aware upload client: every batch goes to the ring
// owner of its user, so each collector sees a disjoint partition of the
// user population and per-user sequencing stays exactly-once no matter
// how many uploaders run.
//
// Ownership is by stable node NAME; the name resolves to an address
// through a membership view. When a shard stops answering (its
// per-request retry budget exhausts), the client retargets: it
// re-resolves the owner's address from the registries and tries again —
// a restarted collector may come back elsewhere, but the user never
// rehashes to a different shard (that would fork its sequence floor and
// double-apply its events). With no registries the retarget rounds
// simply retry the configured address, riding out a restart in place.
type Client struct {
	// HTTP, Binary, Retry configure the underlying per-shard
	// ingest.Client (see those fields there).
	HTTP   *http.Client
	Binary bool
	Retry  *ingest.RetryPolicy
	// Registries are base URLs whose /cluster/v1/members view resolves
	// node names to addresses during retargeting (typically the mergerd
	// address; any heartbeat sink works).
	Registries []string
	// RetargetAttempts bounds address re-resolution rounds after a
	// shard's retry budget exhausts (0 = 4).
	RetargetAttempts int
	// RetargetDelay is the pause before each re-resolution round
	// (0 = 250ms) — long enough for a restarted shard to heartbeat.
	RetargetDelay time.Duration

	ring *Ring

	mu    sync.Mutex
	addrs map[string]string // node name -> base URL
}

// NewClient builds a client over a ring and the initial node -> base
// URL map. Every ring node needs an address (uploads for its users have
// nowhere else to go).
func NewClient(ring *Ring, addrs map[string]string) (*Client, error) {
	m := make(map[string]string, len(addrs))
	for _, n := range ring.Nodes() {
		a, ok := addrs[n]
		if !ok || a == "" {
			return nil, fmt.Errorf("cluster: no address for ring node %q", n)
		}
		m[n] = a
	}
	return &Client{ring: ring, addrs: m}, nil
}

// Ring returns the client's hash ring.
func (c *Client) Ring() *Ring { return c.ring }

// Owner returns the node name owning a user's uploads.
func (c *Client) Owner(user int32) string { return c.ring.Owner(user) }

// Addr returns the current resolved address of a node.
func (c *Client) Addr(node string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addrs[node]
}

// shard builds the per-request ingest client for a node at its current
// address.
func (c *Client) shard(node string) *ingest.Client {
	return &ingest.Client{Base: c.Addr(node), HTTP: c.HTTP, Binary: c.Binary, Retry: c.Retry}
}

// retarget re-resolves one node's address from the registries, keeping
// the freshest record that carries an address. Returns true if any
// registry knew the node.
func (c *Client) retarget(node string) bool {
	var (
		best  MemberRecord
		found bool
	)
	for _, reg := range c.Registries {
		recs, err := FetchMembers(c.HTTP, reg)
		if err != nil {
			continue
		}
		for _, rec := range recs {
			if rec.Node == node && rec.Addr != "" && (!found || rec.LastSeenMs > best.LastSeenMs) {
				best, found = rec, true
			}
		}
	}
	if found {
		c.mu.Lock()
		c.addrs[node] = best.Addr
		c.mu.Unlock()
	}
	return found
}

// withShard runs fn against a node's collector, retargeting between
// rounds when it fails: round 0 uses the current address, each later
// round waits RetargetDelay, re-resolves, and retries.
func (c *Client) withShard(node string, fn func(cl *ingest.Client) error) error {
	attempts := c.RetargetAttempts
	if attempts <= 0 {
		attempts = 4
	}
	delay := c.RetargetDelay
	if delay <= 0 {
		delay = 250 * time.Millisecond
	}
	var lastErr error
	for round := 0; round <= attempts; round++ {
		if round > 0 {
			time.Sleep(delay)
			c.retarget(node)
		}
		if err := fn(c.shard(node)); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("cluster: shard %s unreachable after %d retarget rounds: %w", node, attempts, lastErr)
}

// Upload routes one batch to its user's owner, retargeting on failure.
// Retransmits after a lost response are deduplicated server-side, so
// the events apply exactly once even across a shard restart.
func (c *Client) Upload(b ingest.Batch) (ingest.UploadResult, error) {
	var res ingest.UploadResult
	err := c.withShard(c.ring.Owner(b.User), func(cl *ingest.Client) error {
		var err error
		res, err = cl.Upload(b)
		return err
	})
	return res, err
}

// FlushAll commits the pending epoch (and checkpoint, when durable) on
// every shard.
func (c *Client) FlushAll() error {
	for _, node := range c.ring.Nodes() {
		if err := c.withShard(node, func(cl *ingest.Client) error {
			_, _, err := cl.Flush()
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// Replay uploads recorded per-user event streams across the cluster:
// users partition by ring owner, one uploader goroutine per shard
// drives its partition in ascending user id (each user's stream stays
// in order on one connection, which per-user sequence numbers require).
// The final partial epoch is left pending on every shard; FlushAll
// commits them.
func (c *Client) Replay(events map[int32][]ingest.Event, batchSize int) (ingest.ReplayStats, error) {
	users := slices.Sorted(maps.Keys(events))
	parts := c.ring.Partition(users)
	upload := func(b ingest.Batch) error {
		_, err := c.Upload(b)
		return err
	}

	stats := ingest.ReplayStats{Users: len(users)}
	start := time.Now()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for _, uids := range parts {
		wg.Add(1)
		go func(uids []int32) {
			defer wg.Done()
			n, batches, err := ingest.UploadUsers(upload, events, uids, batchSize)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			stats.Events += n
			stats.Batches += batches
			mu.Unlock()
		}(uids)
	}
	wg.Wait()
	stats.Duration = time.Since(start)
	return stats, firstErr
}
