package cluster

import (
	"strings"
	"testing"
)

func TestHeartbeatWireRoundTrip(t *testing.T) {
	in := Heartbeat{Node: "c3", Addr: "http://10.0.0.7:8477", Epoch: 1 << 40, Rows: 987654321}
	out, err := DecodeHeartbeat(EncodeHeartbeat(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestMembersWireRoundTrip(t *testing.T) {
	in := []MemberRecord{
		{Node: "c1", Addr: "http://a:1", State: StateAlive, Epoch: 3, Rows: 10, LastSeenMs: 1700000000000},
		{Node: "c2", State: StateDead, LastSeenMs: 5},
	}
	out, err := DecodeMembers(EncodeMembers(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip count %d != %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("member %d: %+v != %+v", i, out[i], in[i])
		}
	}
	if out, err := DecodeMembers(EncodeMembers(nil)); err != nil || len(out) != 0 {
		t.Fatalf("empty view round trip: %v, %d records", err, len(out))
	}
}

// TestWireRejects drives the decoders through every hardening branch.
func TestWireRejects(t *testing.T) {
	good := EncodeHeartbeat(Heartbeat{Node: "c1", Addr: "http://a:1", Epoch: 1, Rows: 2})
	cases := map[string][]byte{
		"empty":        nil,
		"short":        good[:6],
		"bad magic":    append([]byte("XXXX"), good[4:]...),
		"bad checksum": append(append([]byte{}, good[:8]...), append([]byte{0xFF}, good[9:]...)...),
		"truncated":    append([]byte{}, EncodeHeartbeat(Heartbeat{Node: "c1"})[:9]...),
	}
	for name, data := range cases {
		if _, err := DecodeHeartbeat(data); err == nil {
			t.Errorf("heartbeat decoder accepted %s", name)
		}
		if _, err := DecodeMembers(data); err == nil {
			t.Errorf("members decoder accepted %s", name)
		}
	}
	// Empty node names are refused on both formats.
	if _, err := DecodeHeartbeat(EncodeHeartbeat(Heartbeat{Addr: "http://a:1"})); err == nil {
		t.Error("heartbeat with empty node accepted")
	}
	if _, err := DecodeMembers(EncodeMembers([]MemberRecord{{Addr: "x"}})); err == nil {
		t.Error("member with empty node accepted")
	}
	// Oversized strings are refused before allocation.
	if _, err := DecodeHeartbeat(EncodeHeartbeat(Heartbeat{Node: strings.Repeat("n", maxWireString+1)})); err == nil {
		t.Error("oversized node name accepted")
	}
	// Invalid state byte.
	if _, err := DecodeMembers(EncodeMembers([]MemberRecord{{Node: "c1", State: State(9)}})); err == nil {
		t.Error("invalid state accepted")
	}
	// Trailing bytes are refused even under a valid checksum.
	if _, err := DecodeHeartbeat(frame(hbMagic, append(append([]byte{}, good[8:]...), 0))); err == nil {
		t.Error("trailing bytes accepted")
	}
}
