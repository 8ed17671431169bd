package core

import (
	"math/rand"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/prob"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// TestInsertLiveCorrectness: build over a prefix of a dataset, insert
// the rest live, and verify PNN answers equal brute force over the full
// dataset — the soundness argument of update.go in action.
func TestInsertLiveCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	domain := geom.Square(1000)
	objs := randObjects(rng, 160, 1000, 20)
	prefix := objs[:120]

	st, err := uncertain.NewStore(prefix, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultBuildOptions()
	opts.SeedK = 60
	opts.Index.PageSize = 512
	tree := BuildHelperRTree(st, opts.Fanout)
	ix, _, err := Build(st, domain, tree, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Live-insert the remaining objects.
	for _, o := range objs[120:] {
		if err := st.Append(o); err != nil {
			t.Fatal(err)
		}
		tree.Insert(treeItem(st, o))
		res := DeriveCRObjects(tree, o, st.All(), domain, opts.SeedK, opts.SeedSectors, opts.RegionSamples)
		if err := ix.InsertLive(o.ID, res.CR); err != nil {
			t.Fatal(err)
		}
	}

	for k := 0; k < 80; k++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		answers, _, err := ix.PNN(q, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := prob.AnswerSet(objs, q)
		if len(answers) != len(want) {
			t.Fatalf("query %v: %d answers after live inserts, brute force %d",
				q, len(answers), len(want))
		}
		for i, a := range answers {
			if int(a.ID) != want[i] {
				t.Fatalf("query %v: ids %v, want %v", q, answers, want)
			}
		}
	}
}

func treeItem(st *uncertain.Store, o uncertain.Object) rtree.Item {
	return rtree.Item{ID: o.ID, MBC: o.Region, Ptr: uint64(st.PageOf(o.ID))}
}

func TestInsertLiveValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	domain := geom.Square(1000)
	objs := randObjects(rng, 50, 1000, 20)
	st := makeStore(t, objs)
	opts := DefaultBuildOptions()
	opts.SeedK = 30
	ix, _, err := Build(st, domain, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order id.
	if err := ix.InsertLive(99, nil); err == nil {
		t.Error("out-of-order id accepted")
	}
	// Id not in store.
	if err := ix.InsertLive(50, nil); err == nil {
		t.Error("id missing from store accepted")
	}
	// Unfinished index.
	raw := NewUVIndex(st, domain, DefaultIndexOptions())
	if err := raw.InsertLive(0, nil); err == nil {
		t.Error("InsertLive before Finish accepted")
	}
}

// TestInsertLiveFlushesPages: after a live insert, the leaf that covers
// the object's own center must list it on disk, not only in memory.
func TestInsertLiveFlushesPages(t *testing.T) {
	rng := rand.New(rand.NewSource(611))
	domain := geom.Square(1000)
	objs := randObjects(rng, 80, 1000, 20)
	st := makeStore(t, objs[:79])
	opts := DefaultBuildOptions()
	opts.SeedK = 40
	opts.Index.PageSize = 512
	tree := BuildHelperRTree(st, opts.Fanout)
	ix, _, err := Build(st, domain, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := objs[79]
	if err := st.Append(o); err != nil {
		t.Fatal(err)
	}
	tree.Insert(treeItem(st, o))
	res := DeriveCRObjects(tree, o, st.All(), domain, opts.SeedK, opts.SeedSectors, opts.RegionSamples)
	if err := ix.InsertLive(o.ID, res.CR); err != nil {
		t.Fatal(err)
	}
	// Query at the new object's center: it must be an answer, read from
	// the on-disk pages.
	answers, _, err := ix.PNN(o.Region.C, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range answers {
		if a.ID == o.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("live-inserted object %d not answered at its own center (answers %v)", o.ID, answers)
	}
}
