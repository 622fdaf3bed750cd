package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// validateBatch is the rule the collector applied to decoded batches
// before uploads were validated in place: a known user, and every event
// of a known kind with a known publisher, requests with a non-empty
// FQDN. It is the oracle of FuzzScanBinary.
func validateBatch(c *Collector, b Batch) error {
	if _, ok := c.users[b.User]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownUser, b.User)
	}
	for i, ev := range b.Events {
		if ev.Kind != KindVisit && ev.Kind != KindRequest {
			return fmt.Errorf("%w: event %d has kind 0x%02x", ErrBadEvent, i, ev.Kind)
		}
		if _, ok := c.pubs[ev.Publisher]; !ok {
			return fmt.Errorf("%w: event %d: %q", ErrUnknownPublisher, i, ev.Publisher)
		}
		if ev.Kind == KindRequest && ev.FQDN == "" {
			return fmt.Errorf("%w: event %d has empty FQDN", ErrBadEvent, i)
		}
	}
	return nil
}

// acceptDecoded is the accept path before the in-place scanner, kept as
// BenchmarkUploadAccept's baseline: decode every string of the upload,
// validate the Events, and append the fresh ones to the user's pending
// slice.
func acceptDecoded(c *Collector, pending map[int32][]Event, raw []byte) error {
	b, err := DecodeBinary(raw)
	if err != nil {
		return err
	}
	if err := validateBatch(c, b); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	next := c.nextSeq[b.User]
	if b.Seq > next {
		return ErrSequenceGap
	}
	if end := b.Seq + uint64(len(b.Events)); end > next {
		pending[b.User] = append(pending[b.User], b.Events[next-b.Seq:]...)
		c.nextSeq[b.User] = end
	}
	return nil
}

// runEvents decodes frames the way the committer does.
func runEvents(frames []byte) []Event {
	var out []Event
	var v frameView
	for len(frames) > 0 {
		frames = nextFrame(frames, &v)
		out = append(out, v.event())
	}
	return out
}

// sameEvents compares event lists, treating nil and empty alike.
func sameEvents(a, b []Event) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// scanSeeds returns FuzzScanBinary's seed corpus over the rig world: a
// valid upload, each validation failure, non-minimal uvarints, forged
// counts and lengths, and trailing bytes.
func scanSeeds(evs map[int32][]Event) [][]byte {
	uid := int32(-1)
	for u, s := range evs {
		if len(s) >= 8 && (uid < 0 || u < uid) {
			uid = u
		}
	}
	stream := evs[uid]
	valid := Batch{User: uid, Seq: 0, Events: stream[:8]}
	with := func(mut func(ev *Event)) []byte {
		b := valid
		b.Events = append([]Event(nil), valid.Events...)
		for i := range b.Events {
			if b.Events[i].Kind == KindRequest {
				mut(&b.Events[i])
				break
			}
		}
		return EncodeBinary(b)
	}
	enc := EncodeBinary(valid)
	frames := enc[len(appendHeader(nil, valid.User, valid.Seq, uint64(len(valid.Events)))):]
	// padded encodes v as a non-minimal uvarint: one extra 0x80
	// continuation byte, then 0x00. nonMinimal pads the seq and the
	// first frame length of the valid upload.
	padded := func(v uint64) []byte {
		var b []byte
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		return append(b, byte(v)|0x80, 0x00)
	}
	nonMinimal := append([]byte("XBB1"), appendHeader(nil, uid, 0, 8)[4:5]...)
	nonMinimal = append(nonMinimal, padded(0)...)
	nonMinimal = append(nonMinimal, 8)
	flen, n := uvarintAt(frames)
	nonMinimal = append(nonMinimal, padded(flen)...)
	nonMinimal = append(nonMinimal, frames[n:]...)
	return [][]byte{
		enc,
		EncodeBinary(Batch{User: uid, Seq: 5, Events: stream[5:8]}),
		EncodeBinary(Batch{User: 1 << 20, Seq: 0, Events: stream[:2]}),
		with(func(ev *Event) { ev.Publisher = "no-such-site.example" }),
		with(func(ev *Event) { ev.FQDN = "" }),
		with(func(ev *Event) { ev.Kind = 'x' }),
		nonMinimal,
		append(appendHeader(nil, uid, 0, 9), frames...),             // count one too many
		append(appendHeader(nil, uid, 0, 7), frames...),             // count one too few: trailing frame
		append(appendHeader(nil, uid, 0, 1), 0xFF, 0x7F, 'v', 0x00), // frame length beyond the body
		append(append([]byte(nil), enc...), 0x00),                   // trailing byte
		EncodeBinary(Batch{User: uid, Seq: 0}),
	}
}

// uvarintAt decodes the uvarint at the head of b (test helper).
func uvarintAt(b []byte) (uint64, int) {
	r := binReader{buf: b}
	v := r.uvarint()
	return v, r.off
}

// FuzzScanBinary holds the in-place upload scanner to the decode path:
// scanBinary accepts a batch exactly when DecodeBinary succeeds and
// validateBatch passes; the committer's frame decode of an accepted
// batch yields DecodeBinary's events; and the journal record of a
// batch whose prefix is a duplicate scans and decodes to exactly the
// fresh suffix.
//
// Run with: go test -run=NONE -fuzz FuzzScanBinary ./internal/ingest/
func FuzzScanBinary(f *testing.F) {
	world, evs, _ := rig(f)
	c := NewCollector(world, Config{Workers: 1})
	f.Cleanup(c.Close)
	for _, s := range scanSeeds(evs) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := c.scanBinary(data)
		b, derr := DecodeBinary(data)
		var verr error
		if derr == nil {
			verr = validateBatch(c, b)
		}
		if (err == nil) != (derr == nil && verr == nil) {
			t.Fatalf("scanBinary err = %v; DecodeBinary err = %v, validate err = %v", err, derr, verr)
		}
		if err != nil {
			return
		}
		if h.user != b.User || h.seq != b.Seq || h.count != uint64(len(b.Events)) {
			t.Fatalf("header (%d, %d, %d), DecodeBinary (%d, %d, %d)", h.user, h.seq, h.count, b.User, b.Seq, len(b.Events))
		}
		if got := runEvents(h.frames); !sameEvents(got, b.Events) {
			t.Fatalf("committer decode:\n got %+v\nwant %+v", got, b.Events)
		}
		for _, k := range []uint64{0, 1, h.count / 2, h.count - 1} {
			if k >= h.count {
				continue
			}
			rec := journalRecord(data, h, h.seq+k, skipFrames(h.frames, k))
			if _, err := c.scanBinary(rec); err != nil {
				t.Fatalf("skip %d: journal record does not scan: %v", k, err)
			}
			rb, err := DecodeBinary(rec)
			if err != nil {
				t.Fatalf("skip %d: journal record does not decode: %v", k, err)
			}
			if rb.User != b.User || rb.Seq != b.Seq+k || !sameEvents(rb.Events, b.Events[k:]) {
				t.Fatalf("skip %d: journal record replays to (%d, %d, %d events), want (%d, %d, %d events)",
					k, rb.User, rb.Seq, len(rb.Events), b.User, b.Seq+k, len(b.Events)-int(k))
			}
		}
	})
}

// BenchmarkUploadAccept times accepting every rig upload with no epoch
// cut: "scan" is IngestBinary (validate in place, sequence, append wire
// frames), "decode" the earlier path (DecodeBinary, validateBatch, append
// []Event). CI gates scan against decode as a same-run ratio.
func BenchmarkUploadAccept(b *testing.B) {
	world, evs, _ := rig(b)
	var raws [][]byte
	events := 0
	for _, bt := range batchList(evs, 512) {
		raws = append(raws, EncodeBinary(bt))
		events += len(bt.Events)
	}
	c := NewCollector(world, Config{EpochEvents: 1 << 30, Workers: 1})
	defer c.Close()
	reset := func(b *testing.B) {
		b.StopTimer()
		c.mu.Lock()
		clear(c.nextSeq)
		c.pending = make(map[int32]*userRun)
		c.pendingN.Store(0)
		c.mu.Unlock()
		b.StartTimer()
	}
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, raw := range raws {
				if _, err := c.IngestBinary(raw); err != nil {
					b.Fatal(err)
				}
			}
			reset(b)
		}
		b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pending := make(map[int32][]Event)
			for _, raw := range raws {
				if err := acceptDecoded(c, pending, raw); err != nil {
					b.Fatal(err)
				}
			}
			reset(b)
		}
		b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
}

// TestCommitterInterleavings: two uploaders (disjoint users, each with
// retransmitted overlaps) race a goroutine issuing Flush,
// EncodeSnapshot, FlushCheckpoint, Epochs and sometimes Close in a
// seeded random order, while a reader checks every Snapshot it loads
// is a whole published epoch. After Close, every cut epoch is in the
// snapshot (committed plus dropped pending events equal the accepted
// ones) and the artifacts equal a single-goroutine replay of exactly
// the committed event prefixes with the same EpochEvents. Run under
// -race in CI.
func TestCommitterInterleavings(t *testing.T) {
	world, evs, _ := rig(t)
	users := make([]int32, 0, len(evs))
	for u := range evs {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	users = users[:min(len(users), 60)]

	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{
				EpochEvents: 150 + rng.Intn(400), Workers: 2, ChunkRows: 64,
				DataDir: t.TempDir(), WALSync: "none", CheckpointBytes: int64(16<<10 + rng.Intn(64<<10)),
			}
			c := NewCollector(world, cfg)
			if _, err := c.Recover(); err != nil {
				t.Fatal(err)
			}
			// Each uploader's batches: its users in order, random sizes,
			// every batch re-sending a random tail of the previous one.
			var plans [2][]Batch
			for i, u := range users {
				stream := evs[u]
				for off := 0; off < len(stream); {
					hi := min(off+20+rng.Intn(200), len(stream))
					lo := max(off-rng.Intn(10), 0)
					plans[i%2] = append(plans[i%2], Batch{User: u, Seq: uint64(lo), Events: stream[lo:hi]})
					off = hi
				}
			}
			closeAt := -1
			if seed%2 == 0 {
				closeAt = 5 + rng.Intn(40)
			}
			ops := make([]int, 200)
			for i := range ops {
				ops[i] = rng.Intn(5)
			}

			var accepted [2]int
			var wg sync.WaitGroup
			done := make(chan struct{})
			for p := range plans {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, b := range plans[p] {
						res, err := c.Ingest(b)
						if errors.Is(err, ErrClosed) {
							return
						}
						if err != nil {
							t.Error(err)
							return
						}
						accepted[p] += res.Accepted
					}
				}()
			}
			var readers sync.WaitGroup
			readers.Add(2)
			go func() {
				defer readers.Done()
				for {
					checkWhole(t, c.Snapshot())
					select {
					case <-done:
						return
					default:
					}
				}
			}()
			go func() {
				defer readers.Done()
				for i := 0; ; i = (i + 1) % len(ops) {
					select {
					case <-done:
						return
					default:
					}
					if i == closeAt {
						c.Close()
						continue
					}
					switch ops[i] {
					case 0:
						checkWhole(t, c.Flush())
					case 1:
						data, epoch, err := c.EncodeSnapshot()
						if err != nil {
							t.Error(err)
							return
						}
						ex, err := DecodeShardExport(data)
						if err != nil || ex.Epoch() != epoch || (epoch > 0 && ex.Rows() != ex.History()[epoch-1].Rows) {
							t.Errorf("export of epoch %d: %v", epoch, err)
							return
						}
					case 2:
						snap, err := c.FlushCheckpoint()
						if err != nil {
							t.Error(err)
							return
						}
						checkWhole(t, snap)
					case 3:
						h := c.Epochs()
						if snap := c.Snapshot(); snap.Epoch() < len(h) {
							t.Errorf("Epochs returned %d epochs before the snapshot of epoch %d published", len(h), snap.Epoch())
							return
						}
					case 4:
						checkWhole(t, c.Snapshot())
					}
				}
			}()
			wg.Wait()
			if closeAt < 0 {
				c.Flush()
			}
			c.Close()
			close(done)
			readers.Wait()
			if t.Failed() {
				return
			}

			snap, hist := c.Snapshot(), c.Epochs()
			committed := 0
			for _, e := range hist {
				committed += e.Events
			}
			if snap.Epoch() != len(hist) || c.inflightN.Load() != 0 {
				t.Fatalf("after Close: snapshot epoch %d of %d cut, %d events in flight", snap.Epoch(), len(hist), c.inflightN.Load())
			}
			if committed+c.PendingEvents() != accepted[0]+accepted[1] {
				t.Fatalf("after Close: %d committed + %d pending, %d accepted", committed, c.PendingEvents(), accepted[0]+accepted[1])
			}

			t.Logf("EpochEvents %d: %d epochs, %d events accepted, %d dropped pending at Close, %d uploads waited on a commit",
				cfg.EpochEvents, len(hist), accepted[0]+accepted[1], c.PendingEvents(), c.mCommitWaits.Load())
			ref := NewCollector(world, Config{EpochEvents: cfg.EpochEvents, Workers: 2, ChunkRows: 64})
			defer ref.Close()
			refEvents := 0
			for _, u := range users {
				// The committed floor: the user's next sequence number
				// minus the events Close left pending.
				n := c.nextSeq[u]
				if run := c.pending[u]; run != nil {
					for _, frames := range run.frames {
						n -= uint64(len(runEvents(frames)))
					}
				}
				if n > 0 {
					if _, err := ref.Ingest(Batch{User: u, Events: evs[u][:n]}); err != nil {
						t.Fatal(err)
					}
					refEvents += int(n)
				}
			}
			if refEvents != committed {
				t.Fatalf("committed sequence numbers cover %d events, epochs committed %d", refEvents, committed)
			}
			want := ref.Flush()
			if snap.Rows() != want.Rows() {
				t.Fatalf("rows = %d, replay %d", snap.Rows(), want.Rows())
			}
			if snap.Rows() == 0 {
				return
			}
			got, wantArts := renderAll(t, snap), renderAll(t, want)
			for i := range wantArts {
				if got[i] != wantArts[i] {
					t.Fatalf("artifact %d differs from the single-goroutine replay:\n got %s\nwant %s", i, got[i], wantArts[i])
				}
			}
		})
	}
}

// checkWhole fails t unless snap is one whole published epoch: its row
// count, stats and store agree with the history entry of its epoch.
func checkWhole(t *testing.T, snap *Snapshot) {
	t.Helper()
	h := snap.History()
	rows := 0
	if len(h) > 0 {
		rows = h[len(h)-1].Rows
	}
	if snap.Epoch() != len(h) || snap.Rows() != rows || int(snap.Stats().ThirdPartyReqs) != rows || snap.Dataset().Store.Len() != rows {
		t.Errorf("partial snapshot: epoch %d, %d history entries, rows %d, history rows %d, stats rows %d",
			snap.Epoch(), len(h), snap.Rows(), rows, snap.Stats().ThirdPartyReqs)
	}
}

// renderAll renders every registered artifact of snap.
func renderAll(t *testing.T, snap *Snapshot) []string {
	t.Helper()
	arts, err := snap.Suite().RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(arts))
	for i, a := range arts {
		out[i] = a.Render()
	}
	return out
}
