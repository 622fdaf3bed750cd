package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAndOrderInvariant(t *testing.T) {
	a, err := NewRing([]string{"c1", "c2", "c3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"c3", "c1", "c2", "c2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < 10000; u++ {
		if a.Owner(u) != b.Owner(u) {
			t.Fatalf("user %d: owner %q vs %q under permuted construction", u, a.Owner(u), b.Owner(u))
		}
	}
}

func TestRingRejectsBadNodes(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Fatal("empty node name accepted")
	}
}

// TestRingStabilityUnderChurn is the property that makes per-user
// sequence numbers survive topology changes: removing one shard only
// moves the users it owned, and adding one back only claims users, so
// no surviving shard's users ever rehash elsewhere.
func TestRingStabilityUnderChurn(t *testing.T) {
	nodes := []string{"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"}
	r8, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	r7, err := r8.Remove("c5")
	if err != nil {
		t.Fatal(err)
	}
	back, err := r7.Add("c5")
	if err != nil {
		t.Fatal(err)
	}
	const users = 50000
	moved := 0
	for u := int32(0); u < users; u++ {
		before, after := r8.Owner(u), r7.Owner(u)
		if before != "c5" && after != before {
			t.Fatalf("user %d moved %s -> %s though neither is the removed shard", u, before, after)
		}
		if before == "c5" {
			moved++
		}
		if got := back.Owner(u); got != before {
			t.Fatalf("user %d: remove+add is not the identity (%s -> %s)", u, before, got)
		}
	}
	if moved == 0 {
		t.Fatal("removed shard owned no users; balance is broken")
	}
}

// TestRingBalance: with the default vnode factor, an 8-shard ring
// splits the user population within a reasonable factor of even.
func TestRingBalance(t *testing.T) {
	var nodes []string
	for i := 1; i <= 8; i++ {
		nodes = append(nodes, fmt.Sprintf("c%d", i))
	}
	r, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	const users = 100000
	counts := make(map[string]int)
	for u := int32(0); u < users; u++ {
		counts[r.Owner(u)]++
	}
	want := users / len(nodes)
	for n, got := range counts {
		if got < want/2 || got > want*2 {
			t.Errorf("shard %s owns %d of %d users (even share %d); ring is badly unbalanced", n, got, users, want)
		}
	}
	parts := r.Partition([]int32{5, 1, 9, 5})
	total := 0
	for n, uids := range parts {
		for _, u := range uids {
			if r.Owner(u) != n {
				t.Errorf("Partition put user %d under %s, Owner says %s", u, n, r.Owner(u))
			}
		}
		total += len(uids)
	}
	if total != 4 {
		t.Errorf("Partition dropped users: %d of 4", total)
	}
}
