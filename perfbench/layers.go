package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"uvdiagram"
)

// Replay budgets of the traced run: how many recorded requests are
// re-issued directly on the DB, per call kind.
const (
	replayPNN       = 256
	replayKNN       = 2048
	replayBatches   = 16
	replayMutations = 32
)

// layerRun collects what the traced run measures below the wire.
type layerRun struct {
	t *tracer

	pnn       int // replayed DB.PNN calls and their summed QueryStats
	indexIOs  int64
	objectIOs int64
	leafEnts  int64
	cands     int64
	depth     int64
	probDur   time.Duration

	rtreeCalls int
	rtreeCands int64

	batchPoints int
	calls       int // DB calls made, failed ones included
	errors      int
}

// timed runs one DB call under a root span of the given name. It
// returns the span id and the request id, or -1 when the call failed.
func (r *layerRun) timed(name string, call func() error) (int, int64, time.Time) {
	r.calls++
	req := r.t.request()
	t0 := time.Now()
	err := call()
	t1 := time.Now()
	if err != nil {
		r.errors++
		return -1, req, t0
	}
	return r.t.add(name, -1, req, t0, t1), req, t0
}

// replay re-issues the recorded requests straight on the DB, each
// through the calls its own kind makes: PNN points through DB.PNN, with
// QueryStats' phases laid out as child spans inside each DB.PNN span;
// kNN points through PossibleKNN and the R-tree's KNNCandidates;
// batches through BatchNN. A layer the workload's traffic bypasses gets
// no calls and reads 0.
func (r *layerRun) replay(db *uvdiagram.DB, p *phase) {
	var pnns, knns []uvdiagram.Point
	var batches [][]uvdiagram.Point
	for _, s := range p.streams {
		for _, rec := range s.pnns.items {
			pnns = append(pnns, rec.q)
		}
		for _, rec := range s.knns.items {
			knns = append(knns, rec.q)
		}
		for _, rec := range s.batches.items {
			batches = append(batches, rec.qs)
		}
	}
	phases := []string{"core.traverse", "uncertain.retrieve", "prob.integrate"}
	for _, i := range spaced(len(pnns), replayPNN) {
		var st uvdiagram.QueryStats
		id, req, t0 := r.timed("uvdiagram.PNN", func() (err error) {
			_, st, err = db.PNN(pnns[i])
			return err
		})
		if id < 0 {
			continue
		}
		r.t.addSequential(id, req, t0, phases, []time.Duration{st.TraverseDur, st.RetrieveDur, st.ProbDur})
		r.pnn++
		r.indexIOs += st.IndexIOs
		r.objectIOs += st.ObjectIOs
		r.leafEnts += int64(st.LeafEntries)
		r.cands += int64(st.Candidates)
		r.depth += int64(st.Depth)
		r.probDur += st.ProbDur
	}
	for _, i := range spaced(len(knns), replayKNN) {
		q := knns[i]
		r.timed("uvdiagram.PossibleKNN", func() error {
			_, err := db.PossibleKNN(q, knnK)
			return err
		})
		r.timed("rtree.KNNCandidates", func() error {
			cands, _ := db.RTree().KNNCandidates(q, knnK)
			r.rtreeCands += int64(len(cands))
			return nil
		})
		r.rtreeCalls++
	}
	opts := &uvdiagram.BatchOptions{Workers: runtime.GOMAXPROCS(0), CacheSize: 256}
	for _, i := range spaced(len(batches), replayBatches) {
		if id, _, _ := r.timed("uvdiagram.BatchNN", func() error {
			_, err := db.BatchNN(batches[i], opts)
			return err
		}); id >= 0 {
			r.batchPoints += len(batches[i])
		}
	}
}

// replayMutations applies insert/delete pairs straight on the DB,
// keeping the writer's population in step.
func (r *layerRun) replayMutations(db *uvdiagram.DB, s *stream) {
	pop := s.pop
	for i := 0; i < replayMutations; i++ {
		o := pop.newObject(s.rng)
		if id, _, _ := r.timed("uvdiagram.Insert", func() error { return db.Insert(o) }); id >= 0 {
			pop.added(o)
		}
		victim := pop.pickVictim(s.rng)
		if id, _, _ := r.timed("uvdiagram.Delete", func() error { return db.Delete(victim) }); id >= 0 {
			pop.removed(victim)
		} else {
			pop.restore(victim)
		}
	}
}

// traced is the per-layer run: an untraced phase, a traced phase whose
// requests are timed on both ends of the socket, then the direct
// replay. Counters are taken as deltas from the start of the traced
// phase's measured part. It returns the per-layer metrics.
func (c *config) traced(d *deployment, srv *serving, pop *population, or *oracle) (map[string]metric, [2]int, error) {
	var counts [2]int // attempted, failed
	db := d.db

	p0, err := c.runPhase(srv, 0, false, pop, nil)
	if err != nil {
		return nil, counts, err
	}
	plain := c.endToEnd(p0)
	p0.close()

	// The server's metrics are read in process: the same snapshot its
	// OpMetrics opcode serves, without a request on a traced connection.
	var bp0 uvdiagram.BufferPoolStats
	var ms0 uvdiagram.MutationStats
	var sm0 map[string]float64
	var t0 time.Time
	p1, err := c.runPhase(srv, 1, true, pop, func() {
		bp0, ms0, sm0, t0 = db.BufferPoolStats(), db.MutationStats(), srv.srv.MetricsMap(), time.Now()
	})
	if err != nil {
		return nil, counts, err
	}
	defer p1.close()
	bp1, sm1, elapsed := db.BufferPoolStats(), srv.srv.MetricsMap(), time.Since(t0)
	withTrace := c.endToEnd(p1)

	t := newTracer()
	for _, s := range p1.streams {
		if err := t.addWire(s, p1.tl.served(s.addr)); err != nil {
			return nil, counts, err
		}
	}

	r := &layerRun{t: t}
	r.replay(db, p1)
	if i := c.w.writer(); i >= 0 {
		r.replayMutations(db, p1.streams[i])
	}
	ms1 := db.MutationStats()

	for _, p := range []*phase{p0, p1} {
		a, f := p.tally()
		counts[0] += a
		counts[1] += f
	}
	counts[0] += r.calls
	counts[1] += r.errors
	if err := c.check(db, []*phase{p0, p1}, pop, or); err != nil {
		return nil, counts, err
	}

	ls := t.layers()
	m := make(map[string]metric)
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	for k := opKind(0); k < numOps; k++ {
		put("server."+opNames[k]+"_service_us", "us", ls.mean("server."+opNames[k], false))
		put("wire."+opNames[k]+"_transit_us", "us", ls.mean("client."+opNames[k], true))
	}

	pnnUS := ls.mean("uvdiagram.PNN", false)
	put("uvdiagram.pnn_us", "us", pnnUS)
	put("uvdiagram.route_us", "us", ls.mean("uvdiagram.PNN", true))
	put("uvdiagram.batch_us_per_point", "us", ratio(us(ls.total("uvdiagram.BatchNN")), float64(r.batchPoints)))
	put("uvdiagram.knn_us", "us", ls.mean("uvdiagram.PossibleKNN", false))
	put("uvdiagram.insert_us", "us", ls.mean("uvdiagram.Insert", false))
	put("uvdiagram.delete_us", "us", ls.mean("uvdiagram.Delete", false))

	n := float64(r.pnn)
	put("core.traverse_us", "us", ls.mean("core.traverse", false))
	put("core.index_ios_per_query", "count", ratio(float64(r.indexIOs), n))
	put("core.leaf_entries_per_query", "count", ratio(float64(r.leafEnts), n))
	put("core.candidates_per_query", "count", ratio(float64(r.cands), n))
	put("core.depth", "count", ratio(float64(r.depth), n))
	put("uncertain.retrieve_us", "us", ls.mean("uncertain.retrieve", false))
	put("uncertain.object_ios_per_query", "count", ratio(float64(r.objectIOs), n))
	integrate := ls.mean("prob.integrate", false)
	put("prob.integrate_us", "us", integrate)
	put("prob.us_per_candidate", "us", ratio(us(r.probDur), float64(r.cands)))
	put("prob.share_of_pnn", "ratio", ratio(integrate, pnnUS))

	put("rtree.knn_candidates_us", "us", ls.mean("rtree.KNNCandidates", false))
	put("rtree.candidates_per_query", "count", ratio(float64(r.rtreeCands), float64(r.rtreeCalls)))

	hits, misses := float64(bp1.LeafHits-bp0.LeafHits), float64(bp1.LeafMisses-bp0.LeafMisses)
	put("lru.leaf_hit_ratio", "ratio", ratio(hits, hits+misses))
	put("lru.leaf_evictions", "count", float64(bp1.LeafEvictions-bp0.LeafEvictions))
	var points int
	for _, s := range p1.streams {
		points += s.points
	}
	const mb = 1 << 20
	put("pager.reads_per_query", "count", ratio(float64(bp1.PagerReads-bp0.PagerReads), float64(points)))
	put("pager.mapped_mb", "MB", float64(bp1.MappedBytes)/mb)
	put("pager.resident_mb", "MB", float64(bp1.ResidentBytes)/mb)
	put("pager.tail_mb", "MB", float64(bp1.TailBytes-bp0.TailBytes)/mb)
	put("pager.disk_growth_mb", "MB", float64(bp1.DiskBytes-bp0.DiskBytes)/mb)
	put("pager.vacuumed_mb", "MB", float64(bp1.VacuumedBytes-bp0.VacuumedBytes)/mb)

	b := d.build
	put("build.seed_s", "s", b.SeedDur.Seconds())
	put("build.prune_s", "s", b.PruneDur.Seconds())
	put("build.refine_s", "s", b.RefineDur.Seconds())
	put("build.index_s", "s", b.IndexDur.Seconds())
	put("build.avg_cr", "count", b.AvgCR())
	put("build.c_prune_ratio", "ratio", b.CPruneRatio())

	put("persist.save_s", "s", d.snapshot.save.Seconds())
	put("persist.open_s", "s", d.snapshot.open.Seconds())
	put("persist.snapshot_mb", "MB", float64(d.snapshot.bytes)/mb)

	deletes := float64(ms1.Deletes - ms0.Deletes)
	dependents := float64(ms1.Dependents - ms0.Dependents)
	rederived := float64(ms1.Rederived - ms0.Rederived)
	put("mutation.dependents_per_delete", "count", ratio(dependents, deletes))
	put("mutation.rederived_per_delete", "count", ratio(rederived, deletes))
	put("mutation.rederive_ratio", "ratio", ratio(rederived, dependents))
	put("mutation.repaired_per_insert", "count", ratio(float64(ms1.Repaired-ms0.Repaired), float64(ms1.Inserts-ms0.Inserts)))

	delta := func(name string) float64 { return sm1[name] - sm0[name] }
	put("maint.ticks_per_s", "1/s", delta("maint.ticks")/elapsed.Seconds())
	put("maint.shard_compacts", "count", delta("maint.shard_compacts"))
	put("maint.compact_ms", "ms", ratio(delta("maint.compact.sum_ns"), delta("maint.compact.count"))/1e6)
	put("db.slack", "count", sm1["db.slack"])

	// Tracing overhead: the traced phase against the untraced one, same
	// DB and traffic.
	put("trace.p50_overhead_pct", "%", 100*ratio(ms(withTrace.queryP50)-ms(plain.queryP50), ms(plain.queryP50)))
	put("trace.qps_overhead_pct", "%", 100*ratio(plain.queriesPerS-withTrace.queriesPerS, plain.queriesPerS))

	fmt.Fprintf(c.log, "# untraced: %s; queries_per_s %.1f\n", plain.conn1.describe(time.Millisecond, "ms"), plain.queriesPerS)
	fmt.Fprintf(c.log, "# traced:   %s; queries_per_s %.1f\n", withTrace.conn1.describe(time.Millisecond, "ms"), withTrace.queriesPerS)
	t.printLayers(c.log)
	path := filepath.Join(c.dir, fmt.Sprintf("spans-%s-%d.jsonl", c.w.name, c.seed))
	if err := t.write(path); err != nil {
		return nil, counts, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(c.log, "# %d spans written to %s\n", len(t.spans), path)
	return m, counts, nil
}

// total is the summed duration of the named spans.
func (ls layerMap) total(name string) time.Duration {
	if lt := ls[name]; lt != nil {
		return lt.total
	}
	return 0
}
