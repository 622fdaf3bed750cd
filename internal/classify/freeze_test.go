package classify

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFreezeIsolatesLaterWrites checks Freeze's isolation contract over
// several epochs of appends that cross chunk seals, with class flips
// written through the live store's Classes. After every epoch:
//   - every earlier frozen store still returns exactly the rows, and
//     reports exactly the Footprint, the live store had when it was
//     frozen;
//   - appending through a frozen chunk's columns never writes into the
//     live store (the wide chunks and the open tail are capped views);
//   - chunks the epoch left untouched share the previous freeze's class
//     slice, and no frozen class slice aliases the live one.
func TestFreezeIsolatesLaterWrites(t *testing.T) {
	const chunkRows = 64
	spilled, err := NewMemStoreSpilled(t.TempDir(), chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	for _, mode := range []struct {
		name string
		st   *MemStore
	}{
		{"wide", NewMemStoreChunked(chunkRows)},
		{"compressed", NewMemStoreCompressed(chunkRows)},
		{"spilled", spilled},
	} {
		t.Run(mode.name, func(t *testing.T) {
			st := mode.st
			rng := rand.New(rand.NewSource(11))
			var model []Row // the live store's rows, classes included
			type frozen struct {
				st   *MemStore
				rows []Row
				fp   Footprint
			}
			var history []frozen
			var prev *MemStore
			for epoch := 0; epoch < 8; epoch++ {
				prevRows := st.Len()
				dirty := make(map[int]struct{})
				for k, flips := 0, rng.Intn(4); prevRows > 0 && k < flips; k++ {
					g := rng.Intn(prevRows)
					cls := (model[g].Class + Class(1+rng.Intn(3))) % 4 // a real change
					st.Classes(g / chunkRows)[g%chunkRows] = cls
					model[g].Class = cls
					dirty[g/chunkRows] = struct{}{}
				}
				for _, r := range randomRows(rng, 30+rng.Intn(100), 40) {
					st.Append(r)
					model = append(model, r)
				}

				for i, h := range history {
					writeThrough(h.st)
					if got := (&Dataset{Store: h.st}).Rows(); !reflect.DeepEqual(got, h.rows) {
						t.Fatalf("epoch %d: freeze %d no longer returns its rows", epoch, i)
					}
					if fp := h.st.Footprint(); fp != h.fp {
						t.Fatalf("epoch %d: freeze %d footprint %+v, want %+v", epoch, i, fp, h.fp)
					}
				}
				if got := (&Dataset{Store: st}).Rows(); !reflect.DeepEqual(got, model) {
					t.Fatalf("epoch %d: live store diverged from its model (a frozen view wrote through)", epoch)
				}

				fr := st.Freeze(prev, prevRows, dirty)
				if fp, want := fr.Footprint(), st.Footprint(); fp != want {
					t.Fatalf("epoch %d: frozen footprint %+v, live %+v", epoch, fp, want)
				}
				for ci := 0; ci < fr.NumChunks(); ci++ {
					cls := fr.Classes(ci)
					if &cls[0] == &st.Classes(ci)[0] {
						t.Fatalf("epoch %d chunk %d: frozen class column aliases the live one", epoch, ci)
					}
					if prev == nil || ci >= prevRows/chunkRows {
						continue
					}
					_, flipped := dirty[ci]
					if shared := &cls[0] == &prev.Classes(ci)[0]; shared == flipped {
						t.Fatalf("epoch %d chunk %d: shares prev's classes = %v with flipped = %v",
							epoch, ci, shared, flipped)
					}
				}
				history = append(history, frozen{fr, append([]Row(nil), model...), st.Footprint()})
				prev = fr
			}
			if st.Len() < 4*chunkRows {
				t.Fatalf("only %d rows; the epochs must cross several chunk seals", st.Len())
			}
			if st.Compressed() && st.Footprint().SealedChunks == 0 {
				t.Fatal("the compressed store never sealed a block")
			}
		})
	}
}

// writeThrough appends a sentinel to every column of every wide chunk
// view the frozen store holds, discarding the results: on a capped view
// each append reallocates, on an uncapped one it writes into the live
// store's spare capacity.
func writeThrough(fr *MemStore) {
	for _, c := range fr.wide {
		_ = append(c.URLHash, ^uint64(0))
		_ = append(c.IP, ^c.IP[0])
		_ = append(c.FQDN, ^uint32(0))
		_ = append(c.RefFQDN, ^uint32(0))
		_ = append(c.Publisher, -1)
		_ = append(c.User, -1)
		_ = append(c.Day, ^uint16(0))
		_ = append(c.Country, ^uint8(0))
		_ = append(c.Flags, ^uint8(0))
	}
}
