package main

import (
	"fmt"
	"math"
	"slices"

	"uvdiagram"
	"uvdiagram/internal/prob"
)

// oracle checks answers against brute force over the live objects and
// counts wrong answers per request kind.
type oracle struct {
	objs    []uvdiagram.Object
	tol     float64
	k       int
	checked [numOps]int
	wrong   [numOps]int
	queries int   // requests the oracle sent itself
	first   error // the first mismatch, for the report
}

func (o *oracle) record(kind opKind, err error) {
	o.checked[kind]++
	if err != nil {
		o.wrong[kind]++
		if o.first == nil {
			o.first = fmt.Errorf("%s: %w", opNames[kind], err)
		}
	}
}

// pnn checks one PNN answer: the ids must equal uvdiagram.AnswerSet
// exactly, and each probability must be within the tolerance of
// uvdiagram.Probabilities over those objects.
func (o *oracle) pnn(q uvdiagram.Point, got []uvdiagram.Answer) error {
	idx := uvdiagram.AnswerSet(o.objs, q)
	sub := make([]uvdiagram.Object, len(idx))
	for i, j := range idx {
		sub[i] = o.objs[j]
	}
	slices.SortFunc(sub, func(a, b uvdiagram.Object) int { return int(a.ID) - int(b.ID) })
	if len(got) != len(sub) {
		return fmt.Errorf("at %v: %d answers, brute force has %d", q, len(got), len(sub))
	}
	want := uvdiagram.Probabilities(sub, q)
	for i, a := range got {
		if a.ID != sub[i].ID {
			return fmt.Errorf("at %v: answer ids %v, brute force %v", q, answerIDs(got), objectIDs(sub))
		}
		if d := math.Abs(a.Prob - want[i]); !(d <= o.tol) {
			return fmt.Errorf("at %v: object %d probability %.12g, brute force %.12g", q, a.ID, a.Prob, want[i])
		}
	}
	return nil
}

// knn checks one possible-kNN answer against prob.KNNAnswerSet.
func (o *oracle) knn(q uvdiagram.Point, got []int32) error {
	idx := prob.KNNAnswerSet(o.objs, q, o.k)
	want := make([]int32, len(idx))
	for i, j := range idx {
		want[i] = o.objs[j].ID
	}
	slices.Sort(want)
	have := slices.Sorted(slices.Values(got))
	if !slices.Equal(have, want) {
		return fmt.Errorf("at %v: ids %v, brute force %v", q, have, want)
	}
	return nil
}

// checkRecords checks an evenly spaced sample of at most limit answers
// of each kind a stream kept.
func (o *oracle) checkRecords(s *stream, limit int) {
	pnns, knns, batches := s.pnns.items, s.knns.items, s.batches.items
	for _, i := range spaced(len(pnns), limit) {
		o.record(opPNN, o.pnn(pnns[i].q, pnns[i].ans))
	}
	for _, i := range spaced(len(knns), limit) {
		o.record(opKNN, o.knn(knns[i].q, knns[i].ids))
	}
	// Batches: whole batches until the point budget is used.
	if len(batches) > 0 {
		per := len(batches[0].qs)
		for _, i := range spaced(len(batches), max(1, limit/per)) {
			b := batches[i]
			var err error
			for j, q := range b.qs {
				if err = o.pnn(q, b.lists[j]); err != nil {
					break
				}
			}
			o.record(opBatchPNN, err)
		}
	}
}

// spaced returns at most limit indices spread evenly over [0, n).
func spaced(n, limit int) []int {
	if n <= limit {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, limit)
	for i := range out {
		out[i] = i * n / limit
	}
	return out
}

func answerIDs(as []uvdiagram.Answer) []int32 {
	out := make([]int32, len(as))
	for i, a := range as {
		out[i] = a.ID
	}
	return out
}

func objectIDs(os []uvdiagram.Object) []int32 {
	out := make([]int32, len(os))
	for i, o := range os {
		out[i] = o.ID
	}
	return out
}

// checkDurable verifies the churn writer's acknowledged writes once the
// DB is quiet: every acknowledged insert that was not deleted later is
// alive, every acknowledged delete is gone, and the live count matches.
func (o *oracle) checkDurable(db *uvdiagram.DB, p *population) {
	for _, id := range p.inserted {
		if _, live := p.objs[id]; live {
			var err error
			if !db.Alive(id) {
				err = fmt.Errorf("acknowledged insert %d is not alive", id)
			}
			o.record(opInsert, err)
		}
	}
	for _, id := range p.deleted {
		var err error
		if db.Alive(id) {
			err = fmt.Errorf("acknowledged delete %d is still alive", id)
		}
		o.record(opDelete, err)
	}
	if db.Len() != len(p.objs) {
		o.record(opDelete, fmt.Errorf("DB holds %d live objects, the writer expects %d", db.Len(), len(p.objs)))
	}
}
