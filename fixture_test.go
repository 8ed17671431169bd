package uvdiagram

import (
	"os"
	"path/filepath"
	"testing"

	"uvdiagram/internal/datagen"
)

// Fixture is one committed database file under testdata/ together with
// the recipe that rebuilds the same database fresh. The version 1–4
// files were written by the retired logical writer, so they are the
// only way to exercise the frozen decoder; the v5 file pins the
// page-image layout.
type Fixture struct {
	Name    string  // file under testdata/
	Version uint32  // stream version in the header
	Tol     float64 // probability tolerance against a fresh build (0 = bitwise)
	// Fresh rebuilds the saved database: the same objects, options and
	// mutations it was saved after.
	Fresh func(testing.TB) *DB
}

// Bytes reads the fixture file.
func (f Fixture) Bytes(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(f.Path())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Path is the fixture's location relative to the package directory.
func (f Fixture) Path() string { return filepath.Join("testdata", f.Name) }

func freshDB(t testing.TB, objs []Object, domain Rect, opts *Options, deletes ...int32) *DB {
	t.Helper()
	db, err := Build(objs, domain, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range deletes {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// The logical fixtures carry probabilities that Load re-normalizes from
// their pdf histograms, which may move them by an ulp; 1e-12 is the
// tolerance the classic Save/Load round trips always had.
var (
	FixtureV2 = Fixture{Name: "v2_tombstones.uvdb", Version: 2, Tol: 1e-12, Fresh: func(t testing.TB) *DB {
		cfg := datagen.Config{N: 60, Side: 2000, Diameter: 30, Seed: 4242}
		return freshDB(t, datagen.Uniform(cfg), cfg.Domain(), nil, 7, 21, 40)
	}}
	FixtureV3 = Fixture{Name: "v3_equal4.uvdb", Version: 3, Tol: 1e-12, Fresh: func(t testing.TB) *DB {
		cfg := datagen.Config{N: 80, Side: 2000, Diameter: 30, Seed: 42}
		return freshDB(t, datagen.Uniform(cfg), cfg.Domain(), &Options{Shards: 4})
	}}
	FixtureV4 = Fixture{Name: "v4_median.uvdb", Version: 4, Tol: 1e-12, Fresh: func(t testing.TB) *DB {
		cfg := datagen.Config{N: 80, Side: 2000, Diameter: 40, Seed: 13}
		return freshDB(t, datagen.Skewed(cfg, 2000.0/8), cfg.Domain(), &Options{Shards: 4, Layout: WeightedMedian{}})
	}}
	// FixtureDivergent is an equal-strip v3 file whose shard 1 index
	// stream was built from a registry with one constraint dropped from
	// object 5's set, as the old per-shard compaction could leave it.
	FixtureDivergent = Fixture{Name: "v3_divergent.uvdb", Version: 3, Tol: 1e-12, Fresh: func(t testing.TB) *DB {
		cfg := datagen.Config{N: 70, Side: 2000, Diameter: 40, Seed: 29}
		return freshDB(t, datagen.Uniform(cfg), cfg.Domain(), &Options{Shards: 4})
	}}
	// FixtureDivergentWide is FixtureDivergent with object 5's whole
	// set dropped from shard 1's copy, which adds a leaf entry there.
	FixtureDivergentWide = Fixture{Name: "v3_divergent_wide.uvdb", Version: 3, Tol: 1e-12, Fresh: FixtureDivergent.Fresh}
	FixtureV5            = Fixture{Name: "v5_snapshot.uv5", Version: 5, Fresh: func(t testing.TB) *DB {
		cfg := datagen.Config{N: 60, Side: 2000, Diameter: 30, Seed: 7}
		return freshDB(t, datagen.Uniform(cfg), cfg.Domain(), &Options{Shards: 2}, 11)
	}}
	Fixtures = []Fixture{FixtureV2, FixtureV3, FixtureV4, FixtureDivergent, FixtureDivergentWide, FixtureV5}
)
