package uvdiagram_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

// saveSnapshotDB builds a database, snapshots it to a temp file and
// returns both.
func saveSnapshotDB(t testing.TB, n int, opts *uvdiagram.Options) (*uvdiagram.DB, string) {
	t.Helper()
	cfg := datagen.Config{N: n, Side: 2000, Diameter: 30, Seed: 42}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.uv5")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	return db, path
}

// assertEquivalent checks that two databases answer an identical query
// workload bitwise identically: PNN, TopKPNN, PossibleKNN and the
// batched PNN path. The paper's engine guarantees bitwise answers, and
// the snapshot path must not lose that.
func assertEquivalent(t *testing.T, want, got *uvdiagram.DB, seed int64) {
	t.Helper()
	assertEquivalentTol(t, want, got, seed, 0)
}

// assertEquivalentTol is assertEquivalent with a probability tolerance:
// the classic Save/Load fallback re-normalizes pdf histograms on load,
// which may move probabilities by an ulp (snapshot paths use 0 — they
// preserve page images exactly).
func assertEquivalentTol(t *testing.T, want, got *uvdiagram.DB, seed int64, tol float64) {
	t.Helper()
	eq := func(a, b uvdiagram.Answer) bool {
		if tol == 0 {
			return a == b
		}
		d := a.Prob - b.Prob
		return a.ID == b.ID && d <= tol && d >= -tol
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]uvdiagram.Point, 60)
	for i := range qs {
		qs[i] = uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
	}
	for _, q := range qs {
		a1, _, err1 := want.PNN(q)
		a2, _, err2 := got.PNN(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("PNN(%v): errs %v, %v", q, err1, err2)
		}
		if len(a1) != len(a2) {
			t.Fatalf("PNN(%v): %d answers vs %d", q, len(a1), len(a2))
		}
		for i := range a1 {
			if !eq(a1[i], a2[i]) {
				t.Fatalf("PNN(%v)[%d]: %v vs %v", q, i, a1[i], a2[i])
			}
		}
		k1, _, err1 := want.TopKPNN(q, 3)
		k2, _, err2 := got.TopKPNN(q, 3)
		if err1 != nil || err2 != nil {
			t.Fatalf("TopKPNN(%v): errs %v, %v", q, err1, err2)
		}
		if len(k1) != len(k2) {
			t.Fatalf("TopKPNN(%v): %d answers vs %d", q, len(k1), len(k2))
		}
		for i := range k1 {
			if !eq(k1[i], k2[i]) {
				t.Fatalf("TopKPNN(%v)[%d]: %v vs %v", q, i, k1[i], k2[i])
			}
		}
		n1, err1 := want.PossibleKNN(q, 4)
		n2, err2 := got.PossibleKNN(q, 4)
		if err1 != nil || err2 != nil {
			t.Fatalf("PossibleKNN(%v): errs %v, %v", q, err1, err2)
		}
		if len(n1) != len(n2) {
			t.Fatalf("PossibleKNN(%v): %d ids vs %d", q, len(n1), len(n2))
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("PossibleKNN(%v)[%d]: %d vs %d", q, i, n1[i], n2[i])
			}
		}
	}
	bopts := &uvdiagram.BatchOptions{Workers: 4, CacheSize: 64}
	b1, err1 := want.BatchNN(qs, bopts)
	b2, err2 := got.BatchNN(qs, bopts)
	if err1 != nil || err2 != nil {
		t.Fatalf("BatchNN: errs %v, %v", err1, err2)
	}
	for i := range b1 {
		if len(b1[i]) != len(b2[i]) {
			t.Fatalf("BatchNN[%d]: %d answers vs %d", i, len(b1[i]), len(b2[i]))
		}
		for j := range b1[i] {
			if !eq(b1[i][j], b2[i][j]) {
				t.Fatalf("BatchNN[%d][%d]: %v vs %v", i, j, b1[i][j], b2[i][j])
			}
		}
	}
}

// TestOpenSnapshotEquivalence is the acceptance property: a database
// served off a v5 snapshot — mmap-backed or heap-replayed — answers the
// whole query surface bitwise identically to the in-heap database that
// wrote it, across shard counts.
func TestOpenSnapshotEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, mode := range []string{"mmap", "heap"} {
			t.Run(map[int]string{1: "S1", 4: "S4"}[shards]+"/"+mode, func(t *testing.T) {
				db, path := saveSnapshotDB(t, 400, &uvdiagram.Options{Shards: shards})
				opened, err := uvdiagram.Open(path, &uvdiagram.Options{Pager: mode})
				if err != nil {
					t.Fatal(err)
				}
				defer opened.Close()
				if got := opened.PagerMode(); got != mode {
					t.Fatalf("PagerMode = %q, want %q", got, mode)
				}
				if opened.Len() != db.Len() || opened.Domain() != db.Domain() {
					t.Fatalf("shape: Len %d/%d, Domain %v/%v",
						opened.Len(), db.Len(), opened.Domain(), db.Domain())
				}
				if opened.IndexStats() != db.IndexStats() {
					t.Fatalf("index stats differ:\n%+v\n%+v", opened.IndexStats(), db.IndexStats())
				}
				assertEquivalent(t, db, opened, 7)
			})
		}
	}
}

// TestOpenSnapshotMutable checks that a snapshot-served database stays
// fully writable: inserts and deletes against the mmap-backed store go
// to the append-only heap tail, answers track the mutations, and a
// Vacuum afterwards does not disturb live data.
func TestOpenSnapshotMutable(t *testing.T) {
	db, path := saveSnapshotDB(t, 300, &uvdiagram.Options{Shards: 4})
	opened, err := uvdiagram.Open(path, nil) // default mmap
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	// Apply the same mutations to both engines.
	for _, eng := range []*uvdiagram.DB{db, opened} {
		if err := eng.Insert(uvdiagram.NewObject(eng.NextID(), 777, 777, 12, nil)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Delete(3); err != nil {
			t.Fatal(err)
		}
	}
	opened.Vacuum()
	assertEquivalent(t, db, opened, 11)

	// Round-trip again: snapshotting the mutated, mmap-served database
	// must produce a valid snapshot of the post-mutation state.
	path2 := filepath.Join(t.TempDir(), "db2.uv5")
	if err := opened.SaveSnapshot(path2); err != nil {
		t.Fatal(err)
	}
	re, err := uvdiagram.Open(path2, &uvdiagram.Options{Pager: "heap"})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertEquivalent(t, db, re, 13)
}

// TestOpenClassicStream checks Open's fallback: every version ≤ 4
// fixture, written by the retired logical writer, loads through the
// frozen decoder into the heap and answers like a fresh build of the
// same objects.
func TestOpenClassicStream(t *testing.T) {
	for _, fx := range uvdiagram.Fixtures {
		if fx.Version > 4 {
			continue
		}
		t.Run(fx.Name, func(t *testing.T) {
			opened, err := uvdiagram.Open(fx.Path(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer opened.Close()
			if opened.PagerMode() != "heap" {
				t.Fatalf("classic stream served as %q", opened.PagerMode())
			}
			assertEquivalentTol(t, fx.Fresh(t), opened, 17, fx.Tol)
		})
	}
}

// TestFixturesLoad: every committed fixture opens through Load and
// through Open in both pager modes, keeps its shape (layout, cuts,
// tombstones) and answers like a fresh build — bitwise for the v5
// page images, within the fixture's tolerance for the logical streams.
// Re-saving the v5 fixture reproduces its bytes, which pins the layout.
func TestFixturesLoad(t *testing.T) {
	for _, fx := range uvdiagram.Fixtures {
		t.Run(fx.Name, func(t *testing.T) {
			data := fx.Bytes(t)
			if v := binary.LittleEndian.Uint32(data[4:]); v != fx.Version {
				t.Fatalf("fixture header says version %d, want %d", v, fx.Version)
			}
			fresh := fx.Fresh(t)
			loaded, err := uvdiagram.Load(bytes.NewReader(data), nil)
			if err != nil {
				t.Fatal(err)
			}
			dbs := map[string]*uvdiagram.DB{"Load": loaded}
			for _, mode := range []string{"mmap", "heap"} {
				db, err := uvdiagram.Open(fx.Path(), &uvdiagram.Options{Pager: mode})
				if err != nil {
					t.Fatalf("Open/%s: %v", mode, err)
				}
				defer db.Close()
				dbs["Open/"+mode] = db
			}
			for name, db := range dbs {
				xs1, ys1 := fresh.ShardCuts()
				xs2, ys2 := db.ShardCuts()
				if fmt.Sprint(xs1, ys1) != fmt.Sprint(xs2, ys2) {
					t.Fatalf("%s: cuts %v/%v, fresh build has %v/%v", name, xs2, ys2, xs1, ys1)
				}
				if db.Len() != fresh.Len() || db.NextID() != fresh.NextID() || db.Domain() != fresh.Domain() {
					t.Fatalf("%s: shape Len %d/%d, NextID %d/%d, Domain %v/%v", name,
						db.Len(), fresh.Len(), db.NextID(), fresh.NextID(), db.Domain(), fresh.Domain())
				}
				for id := int32(0); id < fresh.NextID(); id++ {
					if db.Alive(id) != fresh.Alive(id) {
						t.Fatalf("%s: Alive(%d) = %v, fresh build says %v", name, id, db.Alive(id), fresh.Alive(id))
					}
				}
				assertEquivalentTol(t, fresh, db, 23, fx.Tol)
				if fx.Version < 5 {
					continue
				}
				if db.IndexStats() != fresh.IndexStats() {
					t.Fatalf("%s: index stats differ:\n%+v\n%+v", name, db.IndexStats(), fresh.IndexStats())
				}
				var again bytes.Buffer
				if err := db.Save(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), data) {
					t.Fatalf("%s: re-saving the v5 fixture changed its bytes (%d vs %d)", name, again.Len(), len(data))
				}
			}
		})
	}
}

// TestSaveMatchesSaveSnapshot: the stream writer and the file writer
// produce the same bytes for the same database.
func TestSaveMatchesSaveSnapshot(t *testing.T) {
	db, path := saveSnapshotDB(t, 120, &uvdiagram.Options{Shards: 4})
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := db.Save(&stream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), file) {
		t.Fatalf("Save wrote %d bytes, SaveSnapshot %d, and they differ", stream.Len(), len(file))
	}
	if v := binary.LittleEndian.Uint32(file[4:]); v != 5 {
		t.Fatalf("Save wrote version %d, want 5", v)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("SaveSnapshot left its temp file behind: %v", err)
	}
}

// TestLoadCorruptSnapshot: Load of a corrupt v5 stream fails with a
// *SnapshotError matching ErrCorruptSnapshot (TestLoadErrors covers
// truncations). Lengths and counts that claim more bytes than the
// stream holds fail on the first missing byte rather than sizing an
// allocation.
func TestLoadCorruptSnapshot(t *testing.T) {
	db, _ := buildSmallDB(t, 120, &uvdiagram.Options{Shards: 2})
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	metaLen := int(binary.LittleEndian.Uint64(data[8:]))
	cases := map[string]func([]byte) []byte{
		"truncated-pad": func(b []byte) []byte { return b[:16+metaLen+1] },
		"meta-overrun": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], uint64(len(b)))
			return b
		},
		"meta-huge": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 1<<31)
			return b
		},
		"huge-rtree-page-count": func(b []byte) []byte {
			// The r-tree section's page count is the last word of the
			// metadata blob.
			binary.LittleEndian.PutUint32(b[16+metaLen-4:], 0x7FFFFFFF)
			return b
		},
		"bad-shard-grid": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16+32:], 0xFFFFFFFF)
			return b
		},
		"bad-version": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 99)
			return b
		},
	}
	for name, mutate := range cases {
		bad := mutate(append([]byte(nil), data...))
		_, err := uvdiagram.Load(bytes.NewReader(bad), nil)
		if !errors.Is(err, uvdiagram.ErrCorruptSnapshot) {
			t.Fatalf("%s: error %v does not match ErrCorruptSnapshot", name, err)
		}
		var se *uvdiagram.SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %v is not a *SnapshotError", name, err)
		}
	}
}

// TestOpenSnapshotCorrupt asserts the robustness contract: truncated or
// bit-flipped snapshots yield a typed error matching ErrCorruptSnapshot
// and never a partially constructed DB.
func TestOpenSnapshotCorrupt(t *testing.T) {
	_, path := saveSnapshotDB(t, 120, &uvdiagram.Options{Shards: 2})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		bad := mutate(append([]byte(nil), data...))
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"mmap", "heap"} {
			db, err := uvdiagram.Open(p, &uvdiagram.Options{Pager: mode})
			if err == nil {
				db.Close()
				t.Fatalf("%s/%s: corrupt snapshot opened", name, mode)
			}
			if !errors.Is(err, uvdiagram.ErrCorruptSnapshot) {
				t.Fatalf("%s/%s: error %v does not match ErrCorruptSnapshot", name, mode, err)
			}
			var se *uvdiagram.SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("%s/%s: error %v is not a *SnapshotError", name, mode, err)
			}
		}
	}

	check("truncated-meta", func(b []byte) []byte { return b[:40] })
	check("truncated-pages", func(b []byte) []byte { return b[:len(b)-4096] })
	check("meta-overrun", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[8:], uint64(len(b))) // metaLen past EOF
		return b
	})
	check("bad-object-count", func(b []byte) []byte {
		// n lives right after domain (32) + gx/gy (8) + cuts. With
		// shards=2: gx=2, gy=1 → xs 3×8, ys 2×8 = 40 bytes of cuts.
		off := 16 + 32 + 8 + 40
		binary.LittleEndian.PutUint32(b[off:], 1<<30)
		return b
	})
	check("bad-shard-grid", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[16+32:], 0xFFFFFFFF)
		return b
	})

	// Header-level failures are errors too (typed or not, they must not
	// produce a DB).
	if _, err := uvdiagram.Open(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("opening a missing file succeeded")
	}
	badMagic := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(badMagic[0:], 0xDEADBEEF)
	p := filepath.Join(t.TempDir(), "bad-magic")
	if err := os.WriteFile(p, badMagic, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := uvdiagram.Open(p, nil); err == nil {
		t.Fatal("bad magic accepted")
	}
	badVer := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(badVer[4:], 99)
	p = filepath.Join(t.TempDir(), "bad-version")
	if err := os.WriteFile(p, badVer, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := uvdiagram.Open(p, nil); !errors.Is(err, uvdiagram.ErrCorruptSnapshot) {
		t.Fatalf("version 99: %v", err)
	}
}

// FuzzOpenSnapshot feeds arbitrary bytes (seeded with a real snapshot)
// through Open in heap mode: whatever the corruption, Open must return
// an error or a servable DB — never panic, never hang.
func FuzzOpenSnapshot(f *testing.F) {
	_, path := saveSnapshotDB(f, 60, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:16])
	f.Add([]byte{})
	trunc := append([]byte(nil), data[:len(data)/2]...)
	f.Add(trunc)
	f.Fuzz(func(t *testing.T, b []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.uv5")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Skip()
		}
		db, err := uvdiagram.Open(p, &uvdiagram.Options{Pager: "heap"})
		if err != nil {
			return
		}
		// A structurally valid mutation of the seed must still serve.
		if _, _, err := db.PNN(uvdiagram.Pt(1000, 1000)); err != nil {
			t.Logf("PNN on fuzzed-but-openable snapshot: %v", err)
		}
		db.Close()
	})
}

// FuzzLoad feeds arbitrary bytes (seeded with a v5 stream and every
// fixture, so the frozen version 1–4 decoder is fuzzed too) through
// Load: it must return an error or a servable DB — never panic, never
// hang, never size an allocation from an unchecked count.
func FuzzLoad(f *testing.F) {
	db, _ := buildSmallDB(f, 60, &uvdiagram.Options{Shards: 2})
	var v5 bytes.Buffer
	if err := db.Save(&v5); err != nil {
		f.Fatal(err)
	}
	f.Add(v5.Bytes())
	for _, fx := range uvdiagram.Fixtures {
		f.Add(fx.Bytes(f))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		db, err := uvdiagram.Load(bytes.NewReader(b), nil)
		if err != nil {
			return
		}
		if _, _, err := db.PNN(uvdiagram.Pt(1000, 1000)); err != nil {
			t.Logf("PNN on fuzzed-but-loadable stream: %v", err)
		}
		db.Close()
	})
}
