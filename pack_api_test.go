package crossborder_test

import (
	"context"
	"testing"

	"crossborder"
	"crossborder/internal/goldentest"
)

// TestDefaultPackRenderAllByteIdentical pins the pack subsystem's
// parity contract at the golden configuration: WithPack("default")
// renders every artifact byte-identically to a pack-less build.
func TestDefaultPackRenderAllByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("a second scale-0.05 build is not -short material")
	}
	packed, err := crossborder.New(context.Background(), goldentest.Options(crossborder.WithPack("default"))...)
	if err != nil {
		t.Fatal(err)
	}
	want, got := goldentest.Load(t).Artifacts, packed.RenderAll()
	if len(got) != len(want) {
		t.Fatalf("default pack rendered %d artifacts, bare build %d", len(got), len(want))
	}
	ids := crossborder.ExperimentIDs()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("artifact %s differs under the default pack", ids[i])
		}
	}
}

// TestWithPackUnknownErrors: an unknown pack name fails fast with an
// error listing the valid names, before any build work.
func TestWithPackUnknownErrors(t *testing.T) {
	_, err := crossborder.New(context.Background(),
		crossborder.WithScale(0.02), crossborder.WithPack("nope"))
	if err == nil {
		t.Fatal("New(WithPack(nope)) succeeded, want error")
	}
}

// TestPacksListed: the pack listing leads with "default" and includes
// the three shipped families.
func TestPacksListed(t *testing.T) {
	packs := crossborder.Packs()
	if len(packs) < 4 || packs[0].Name != "default" {
		t.Fatalf("Packs() = %+v, want default first and >=4 entries", packs)
	}
	have := map[string]bool{}
	for _, p := range packs {
		have[p.Name] = true
		if p.Description == "" {
			t.Errorf("pack %s has no description", p.Name)
		}
	}
	for _, n := range []string{"routing", "adversarial", "population"} {
		if !have[n] {
			t.Errorf("pack %s not listed", n)
		}
	}
}
