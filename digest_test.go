package crossborder_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"crossborder"
	"crossborder/internal/goldentest"
)

// artifactDigestsFile pins the SHA-256 of every rendered artifact for a
// few fixed configurations. The golden tests elsewhere compare two code
// paths built in the same run, so a numeric drift in a kernel both paths
// share (geolocation, the RTT model, the DNS picks) passes them; this file
// does not move unless the artifacts' bytes do. Each line reads
// "<config> <experiment id> <sha256 hex>"; '#' starts a comment.
const artifactDigestsFile = "testdata/artifact_digests.txt"

// TestArtifactDigestsPinned renders all 20 artifacts for each pinned
// configuration and compares their SHA-256 with the committed file. On a
// mismatch it prints the lines the current build would write, so an
// intended output change is re-pinned by pasting them in.
func TestArtifactDigestsPinned(t *testing.T) {
	want := readArtifactDigests(t)
	configs := []struct {
		name string
		opts []crossborder.Option
	}{
		{"seed=1,scale=0.05,visits=40,store=wide", nil}, // the shared golden study
		{"seed=1,scale=0.05,visits=40,store=compressed", goldentest.Options(crossborder.WithCompression(true))},
		{"seed=7,scale=0.02,visits=30,store=wide", []crossborder.Option{
			crossborder.WithSeed(7), crossborder.WithScale(0.02), crossborder.WithVisitsPerUser(30)}},
	}
	ids := crossborder.ExperimentIDs()
	for _, cfg := range configs {
		got := goldentest.Load(t).Artifacts
		if cfg.opts != nil {
			st, err := crossborder.New(context.Background(), cfg.opts...)
			if err != nil {
				t.Fatalf("%s: %v", cfg.name, err)
			}
			got = st.RenderAll()
			if err := st.Close(); err != nil {
				t.Errorf("%s: Close: %v", cfg.name, err)
			}
		}
		if len(got) != len(ids) {
			t.Fatalf("%s: RenderAll returned %d artifacts for %d experiments", cfg.name, len(got), len(ids))
		}
		for i, id := range ids {
			key := cfg.name + " " + id
			sum := sha256.Sum256([]byte(got[i]))
			if h := hex.EncodeToString(sum[:]); h != want[key] {
				t.Errorf("artifact digest changed (pinned %q):\n%s %s", want[key], key, h)
			}
			delete(want, key)
		}
	}
	for key := range want {
		t.Errorf("%s pins %q, which no configuration rendered", artifactDigestsFile, key)
	}
}

func readArtifactDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(artifactDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", artifactDigestsFile, line)
		}
		want[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
