package core

import (
	"math"
	"math/rand"
	"testing"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/prob"
	"uvdiagram/internal/uncertain"
)

func buildContinuousIndex(t *testing.T, n int, seed int64) (*UVIndex, []uncertain.Object) {
	t.Helper()
	objs := datagen.Uniform(datagen.Config{N: n, Side: 1000, Diameter: 50, Seed: seed})
	store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		t.Fatal(err)
	}
	tree := BuildHelperRTree(store, 16)
	ix, _, err := Build(store, geom.Square(1000), tree, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix, objs
}

func answerIDsBrute(objs []uncertain.Object, q geom.Point) []int32 {
	idx := prob.AnswerSet(objs, q)
	ids := make([]int32, len(idx))
	for i, j := range idx {
		ids[i] = objs[j].ID
	}
	sortIDs(ids)
	return ids
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// margin is the smallest slack of any answer predicate at q; steps that
// land within tol of a boundary are skipped in exactness comparisons.
func predicateMargin(objs []uncertain.Object, q geom.Point) float64 {
	m1, m2 := math.Inf(1), math.Inf(1)
	arg1 := -1
	for i := range objs {
		if d := objs[i].DistMax(q); d < m1 {
			m1, m2, arg1 = d, m1, i
		} else if d < m2 {
			m2 = d
		}
	}
	gap := math.Inf(1)
	for i := range objs {
		other := m1
		if i == arg1 {
			other = m2
		}
		if g := math.Abs(objs[i].DistMin(q) - other); g < gap {
			gap = g
		}
	}
	return gap
}

func TestContinuousRandomWalkMatchesBruteForce(t *testing.T) {
	ix, objs := buildContinuousIndex(t, 120, 21)
	rng := rand.New(rand.NewSource(5))
	q := geom.Pt(500, 500)
	sess, err := ix.NewContinuousPNN(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	recomputes := 0
	for step := 0; step < 400; step++ {
		q = geom.Pt(
			clampTest(q.X+rng.NormFloat64()*3, 1, 999),
			clampTest(q.Y+rng.NormFloat64()*3, 1, 999),
		)
		ids, re, err := sess.Move(q, nil)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if re {
			recomputes++
		}
		if predicateMargin(objs, q) < 1e-9 {
			continue
		}
		if want := answerIDsBrute(objs, q); !equalIDs(ids, want) {
			t.Fatalf("step %d q=%v: session %v vs brute %v (recomputed=%v)",
				step, q, ids, want, re)
		}
	}
	if recomputes >= 400 {
		t.Fatalf("safe region never saved a recompute (%d/400)", recomputes)
	}
	st := sess.Stats()
	if st.Moves != 400 || st.Recomputes != recomputes+1 {
		t.Fatalf("stats = %+v, want 400 moves and %d recomputes", st, recomputes+1)
	}
	t.Logf("recomputed %d of 400 steps", recomputes)
}

func TestContinuousSafeRegionProperty(t *testing.T) {
	ix, objs := buildContinuousIndex(t, 80, 33)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		q := geom.Pt(50+rng.Float64()*900, 50+rng.Float64()*900)
		sess, err := ix.NewContinuousPNN(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		base := append([]int32(nil), sess.AnswerIDs()...)
		safe := sess.SafeRegion()
		if safe.R <= 0 {
			continue
		}
		for s := 0; s < 30; s++ {
			phi := rng.Float64() * 2 * math.Pi
			x := q.Add(geom.PolarUnit(phi).Scale(rng.Float64() * safe.R * 0.999))
			if !ix.Domain().Contains(x) {
				continue
			}
			if predicateMargin(objs, x) < 1e-9 {
				continue
			}
			if want := answerIDsBrute(objs, x); !equalIDs(base, want) {
				t.Fatalf("trial %d: answers change inside safe circle at %v: %v vs %v",
					trial, x, base, want)
			}
		}
	}
}

func TestContinuousOutsideDomainFails(t *testing.T) {
	ix, _ := buildContinuousIndex(t, 20, 44)
	if _, err := ix.NewContinuousPNN(geom.Pt(-5, -5), nil); err == nil {
		t.Fatal("session outside domain should fail")
	}
	sess, err := ix.NewContinuousPNN(geom.Pt(500, 500), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Move(geom.Pt(2000, 2000), nil); err == nil {
		t.Fatal("move outside domain should fail")
	}
}

func TestContinuousAnswersMatchPNN(t *testing.T) {
	ix, _ := buildContinuousIndex(t, 100, 55)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		sess, err := ix.NewContinuousPNN(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		answers, _, err := ix.PNN(q, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int32, len(answers))
		for i, a := range answers {
			want[i] = a.ID
		}
		if !equalIDs(sess.AnswerIDs(), want) {
			t.Fatalf("q=%v: session %v vs PNN %v", q, sess.AnswerIDs(), want)
		}
	}
}

func clampTest(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
