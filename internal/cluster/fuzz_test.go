package cluster

import (
	"testing"
)

// FuzzDecodeHeartbeat hardens the heartbeat frame decoder: any byte
// string must either decode cleanly or return an error — never panic,
// never over-allocate (string caps are checked before allocation).
// Anything that decodes must survive a canonical re-encode/re-decode
// round trip.
//
// Run with: go test -fuzz FuzzDecodeHeartbeat ./internal/cluster/
func FuzzDecodeHeartbeat(f *testing.F) {
	seeds := [][]byte{
		EncodeHeartbeat(Heartbeat{Node: "c1", Addr: "http://10.0.0.7:8477", Epoch: 12, Rows: 1 << 30}),
		EncodeHeartbeat(Heartbeat{Node: "n"}),
		[]byte("XHB1"),
		[]byte("XHB1\x00\x00\x00\x00"),
		{},
	}
	if full := EncodeHeartbeat(Heartbeat{Node: "c1", Addr: "http://a:1", Epoch: 3, Rows: 4}); len(full) > 10 {
		seeds = append(seeds, full[:len(full)/2]) // truncation
		mut := append([]byte{}, full...)
		mut[9] ^= 0xFF // corrupt the body under the checksum
		seeds = append(seeds, mut)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hb, err := DecodeHeartbeat(data)
		if err != nil {
			return
		}
		hb2, err := DecodeHeartbeat(EncodeHeartbeat(hb))
		if err != nil {
			t.Fatalf("re-decode of re-encoded heartbeat failed: %v", err)
		}
		if hb != hb2 {
			t.Fatalf("round trip changed the heartbeat: %+v vs %+v", hb, hb2)
		}
	})
}

// FuzzDecodeMembers is the same contract for the wire membership
// view, whose count and per-member guards must hold under arbitrary
// input before any allocation happens.
//
// Run with: go test -fuzz FuzzDecodeMembers ./internal/cluster/
func FuzzDecodeMembers(f *testing.F) {
	view := []MemberRecord{
		{Node: "c1", Addr: "http://a:1", State: StateAlive, Epoch: 3, Rows: 10, LastSeenMs: 1700000000000},
		{Node: "c2", State: StateSuspect, LastSeenMs: 5},
		{Node: "c3", Addr: "http://b:2", State: StateDead},
	}
	seeds := [][]byte{
		EncodeMembers(view),
		EncodeMembers(nil),
		[]byte("XMB1"),
		{},
		// Forged count: header claims 2^50 members in an empty body.
		frame(memMagic, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x04}),
	}
	if full := EncodeMembers(view); len(full) > 12 {
		seeds = append(seeds, full[:len(full)-3])
		mut := append([]byte{}, full...)
		mut[11] ^= 0xFF
		seeds = append(seeds, mut)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeMembers(data)
		if err != nil {
			return
		}
		recs2, err := DecodeMembers(EncodeMembers(recs))
		if err != nil {
			t.Fatalf("re-decode of re-encoded view failed: %v", err)
		}
		if len(recs) != len(recs2) {
			t.Fatalf("round trip changed the count: %d vs %d", len(recs), len(recs2))
		}
		for i := range recs {
			if recs[i] != recs2[i] {
				t.Fatalf("round trip changed member %d: %+v vs %+v", i, recs[i], recs2[i])
			}
		}
	})
}
