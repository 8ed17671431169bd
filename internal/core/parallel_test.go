package core

import (
	"math/rand"
	"testing"

	"uvdiagram/internal/geom"
)

// TestParallelBuildEquivalence: a build with Workers > 1 produces the
// exact same index (same cr-sets, same tree shape, same answers) as a
// sequential build.
func TestParallelBuildEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	domain := geom.Square(1000)
	objs := randObjects(rng, 200, 1000, 20)

	build := func(workers int) (*UVIndex, BuildStats) {
		st := makeStore(t, objs)
		opts := DefaultBuildOptions()
		opts.SeedK = 60
		opts.Index.PageSize = 512
		opts.Workers = workers
		ix, stats, err := Build(st, domain, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix, stats
	}

	seqIx, seqStats := build(1)
	parIx, parStats := build(4)

	if seqStats.SumCR != parStats.SumCR || seqStats.SumI != parStats.SumI {
		t.Fatalf("pruning stats differ: seq I=%d CR=%d, par I=%d CR=%d",
			seqStats.SumI, seqStats.SumCR, parStats.SumI, parStats.SumCR)
	}
	for id := int32(0); int(id) < len(objs); id++ {
		a, b := seqIx.CRObjects(id), parIx.CRObjects(id)
		if len(a) != len(b) {
			t.Fatalf("object %d: cr sizes differ (%d vs %d)", id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("object %d: cr sets differ", id)
			}
		}
	}
	sst, pst := seqIx.Stats(), parIx.Stats()
	if sst != pst {
		t.Fatalf("index shapes differ: %+v vs %+v", sst, pst)
	}
	for k := 0; k < 40; k++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		a1, _, err := seqIx.PNN(q, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		a2, _, err := parIx.PNN(q, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a1) != len(a2) {
			t.Fatalf("query %v: answer counts differ", q)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("query %v: answers differ: %v vs %v", q, a1, a2)
			}
		}
	}
}

// TestParallelBuildBasic: the Basic strategy parallelizes too.
func TestParallelBuildBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(709))
	domain := geom.Square(1000)
	objs := randObjects(rng, 60, 1000, 20)
	st := makeStore(t, objs)
	opts := DefaultBuildOptions()
	opts.Strategy = StrategyBasic
	opts.CellSamples = 360
	opts.Workers = 3
	opts.Index.PageSize = 512
	ix, stats, err := Build(st, domain, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SumR == 0 {
		t.Error("Basic build recorded no r-objects")
	}
	if _, _, err := ix.PNN(geom.Pt(500, 500), nil, nil); err != nil {
		t.Fatal(err)
	}
}
