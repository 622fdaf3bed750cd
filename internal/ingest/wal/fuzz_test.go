package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALOpen hardens recovery, the WAL's on-disk decoder: arbitrary
// bytes written as the first segment (optionally followed by a second,
// empty segment, so the first is held to the non-final rule) must
// either be refused by Open or open cleanly. A journal that opens must
// replay without panicking, and a second Open of the same directory
// must replay the same payloads — the torn-tail truncation is
// idempotent.
//
// Run with: go test -fuzz FuzzWALOpen -fuzzminimizetime 1s ./internal/ingest/wal/
func FuzzWALOpen(f *testing.F) {
	dir := f.TempDir()
	w, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append(bytes.Repeat([]byte{byte(i)}, 3*i+1)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		f.Fatal(err)
	}
	flip := append([]byte(nil), valid...)
	flip[len(flip)-3] ^= 0x40
	for _, seed := range [][]byte{
		valid,
		valid[:len(valid)-2], // torn final record
		valid[:len(segMagic)+1],
		valid[:3], // torn header
		flip,      // checksum mismatch on a fully present record
		{},
		[]byte("XWAL1\x07"), // header naming the wrong segment
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}

	f.Fuzz(func(t *testing.T, data []byte, second bool) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if second {
			if err := os.WriteFile(filepath.Join(dir, segName(1)), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		first, ok := openAndReplay(t, dir)
		if !ok {
			return
		}
		again, ok := openAndReplay(t, dir)
		if !ok {
			t.Fatal("a journal that opened once was refused on reopen")
		}
		if len(again) != len(first) {
			t.Fatalf("reopen replayed %d records, first open %d", len(again), len(first))
		}
		for i := range first {
			if !bytes.Equal(first[i], again[i]) {
				t.Fatalf("record %d changed across reopen: %x vs %x", i, first[i], again[i])
			}
		}
	})
}

// openAndReplay opens dir with SyncNone and replays every record,
// reporting false when Open refuses the journal.
func openAndReplay(t *testing.T, dir string) ([][]byte, bool) {
	t.Helper()
	w, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		return nil, false
	}
	defer w.Close()
	var out [][]byte
	if err := w.Replay(func(_ int, p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("replay after a successful open: %v", err)
	}
	return out, true
}
