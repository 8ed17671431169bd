package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"uvdiagram"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/server"
)

// Settings every workload shares. workloads.json records them, with
// each workload's, and the self-test checks that it matches this file.
const (
	diameter      = 40.0
	side          = 10000.0
	shards        = 4
	clients       = 2 // closed-loop clients, one connection each
	setupRepeats  = 3
	warmup        = time.Second
	batchPoints   = 32
	batchWindow   = 500.0
	knnK          = 5
	oracleSamples = 256
	probTolerance = 1e-4
)

// On a workload with a writer, the warm-up also lasts until the writer
// has made warmupWrites requests, checked every warmupStep and given up
// after warmupLimit. Churn makes mutations slower as it goes (the first
// writes on a fresh Build are the cheapest, and every shard compacts
// about once in the first warmupWrites), so a fixed count of writes, not
// of seconds, starts the measured window from the same state of the same
// seed's DB on a fast run and a slow one.
const (
	warmupWrites = 1200
	warmupStep   = 100 * time.Millisecond
	warmupLimit  = 30 * time.Second
)

// workload is one named workload: its data, its DB options, and what
// each closed-loop connection sends.
type workload struct {
	name         string
	n            int
	pager        string // "heap" (in-heap Build) or "mmap" (Build, SaveSnapshot, Open)
	maintain     bool
	compactSlack int
	conns        [clients]conn
}

// conn is one connection's traffic: its loop body and the request kind
// its latency metrics follow.
type conn struct {
	step func(*stream)
	kind opKind
}

var workloads = []workload{
	{name: "pnn", n: 20000, pager: "heap",
		conns: [clients]conn{{(*stream).sendPNN, opPNN}, {(*stream).sendBatch, opBatchPNN}}},
	// Both connections send the same traffic, as the workload is
	// defined; connection 2's metrics are a second client's sample.
	{name: "knn_mmap", n: 20000, pager: "mmap",
		conns: [clients]conn{{(*stream).sendKNN, opKNN}, {(*stream).sendKNN, opKNN}}},
	// Connection 2's metrics follow its inserts: delete latency depends
	// on the generated dataset (its cr-set sizes) by up to 2x between
	// seeds, too much for a bounded metric, so it is printed, not gated.
	{name: "churn", n: 8000, pager: "heap", maintain: true, compactSlack: 10000,
		conns: [clients]conn{{(*stream).sendPNN, opPNN}, {(*stream).churnStep, opInsert}}},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// writer is the index of the connection that sends Insert and Delete,
// or -1 on a read-only workload.
func (w workload) writer() int {
	for i, c := range w.conns {
		if c.kind == opInsert {
			return i
		}
	}
	return -1
}

// config is one invocation.
type config struct {
	w            workload
	seed         int64
	seconds      time.Duration
	trace        bool
	setupRepeats int
	warmup       time.Duration
	warmupWrites int
	dir          string    // scratch space for snapshots and span files
	log          io.Writer // human-readable report
}

func newConfig(name string) (*config, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	return &config{w: w, setupRepeats: setupRepeats, warmup: warmup, warmupWrites: warmupWrites}, nil
}

func (c *config) options() *uvdiagram.Options {
	o := &uvdiagram.Options{Shards: shards, CompactSlack: c.w.compactSlack}
	if c.w.maintain {
		o.Maintain = &uvdiagram.MaintainOptions{}
	}
	return o
}

func (c *config) objects() []uvdiagram.Object {
	return datagen.Uniform(datagen.Config{N: c.w.n, Side: side, Diameter: diameter, Seed: c.seed})
}

// deployment is the servable DB a workload runs against.
type deployment struct {
	db    *uvdiagram.DB
	setup []float64 // seconds, one per repeat
	build uvdiagram.BuildStats
	// snapshot is the setup snapshot on knn_mmap (served, removed at
	// close) and a probe saved right after set-up elsewhere.
	snapshot persistProbe
}

// persistProbe is one timed SaveSnapshot (and optional Open).
type persistProbe struct {
	path       string
	bytes      int64
	objects    int
	save, open time.Duration
}

func (p persistProbe) bytesPerObject() float64 { return ratio(float64(p.bytes), float64(p.objects)) }

func (d *deployment) setupMedian() float64 { return median(append([]float64(nil), d.setup...)) }

func (d *deployment) close() {
	if d.db != nil {
		d.db.Close()
		d.db = nil
	}
	if d.snapshot.path != "" {
		os.Remove(d.snapshot.path)
		d.snapshot.path = ""
	}
}

// setUp builds the workload's DB setup_repeats times (once when traced)
// and keeps the last; each repeat's time from generated objects to a
// servable DB is recorded.
func (c *config) setUp(objs []uvdiagram.Object) (*deployment, error) {
	repeats := c.setupRepeats
	if c.trace {
		repeats = 1
	}
	d := &deployment{}
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}
	for i := 0; i < repeats; i++ {
		if d.db != nil {
			d.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		db, err := uvdiagram.Build(objs, uvdiagram.SquareDomain(side), c.options())
		if err != nil {
			return fail(fmt.Errorf("build: %w", err))
		}
		d.db, d.build = db, db.BuildStats()
		if c.w.pager == "mmap" {
			d.snapshot, err = saveSnapshot(db, filepath.Join(c.dir, "setup.uvdb"))
			db.Close()
			d.db = nil
			if err != nil {
				return fail(err)
			}
			t1 := time.Now()
			opts := c.options()
			opts.Pager = "mmap"
			if d.db, err = uvdiagram.Open(d.snapshot.path, opts); err != nil {
				return fail(fmt.Errorf("open snapshot: %w", err))
			}
			d.snapshot.open = time.Since(t1)
		}
		d.setup = append(d.setup, time.Since(t0).Seconds())
	}
	if c.w.pager != "mmap" {
		p, err := c.probeSnapshot(d.db)
		if err != nil {
			return fail(err)
		}
		d.snapshot = p
	}
	// Set-up garbage is not part of serving: collect it and restart the
	// resident-set high-water mark.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return fail(err)
	}
	return d, nil
}

// saveSnapshot times SaveSnapshot to path and measures the file.
func saveSnapshot(db *uvdiagram.DB, path string) (persistProbe, error) {
	p := persistProbe{path: path, objects: db.Len()}
	t0 := time.Now()
	if err := db.SaveSnapshot(path); err != nil {
		return p, fmt.Errorf("save snapshot: %w", err)
	}
	p.save = time.Since(t0)
	fi, err := os.Stat(path)
	if err != nil {
		return p, err
	}
	p.bytes = fi.Size()
	return p, nil
}

// probeSnapshot saves the DB to a scratch file, measures it, times an
// mmap Open of it, and removes the file.
func (c *config) probeSnapshot(db *uvdiagram.DB) (persistProbe, error) {
	path := filepath.Join(c.dir, "probe.uvdb")
	defer os.Remove(path)
	p, err := saveSnapshot(db, path)
	p.path = "" // gone once this returns
	if err != nil {
		return p, err
	}
	t0 := time.Now()
	db2, err := uvdiagram.Open(path, &uvdiagram.Options{Shards: shards, Pager: "mmap"})
	if err != nil {
		return p, fmt.Errorf("open snapshot: %w", err)
	}
	p.open = time.Since(t0)
	return p, db2.Close()
}

// serving is the in-process server and its listeners.
type serving struct {
	srv *server.Server
	wg  sync.WaitGroup
	lis []net.Listener
}

func startServer(db *uvdiagram.DB) *serving {
	return &serving{srv: server.New(db, nil)}
}

// listen serves on a new loopback listener, wrapped for tracing when
// traced is set.
func (s *serving) listen(traced bool) (string, *tracedListener, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var tl *tracedListener
	served := lis
	if traced {
		tl = &tracedListener{Listener: lis, conns: make(map[string]*tracedConn)}
		served = tl
	}
	s.lis = append(s.lis, lis)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.srv.Serve(served) // returns once the listener is closed
	}()
	return lis.Addr().String(), tl, nil
}

func (s *serving) stop() {
	for _, l := range s.lis {
		l.Close()
	}
	s.srv.Close()
	s.wg.Wait()
	s.srv.Wait()
}

// phase is one measured stretch of closed-loop traffic.
type phase struct {
	streams []*stream
	tl      *tracedListener
	// Requests of the warm-up, which count as attempted too.
	warmAttempts, warmErrors int
}

func (p *phase) close() {
	for _, s := range p.streams {
		s.cli.Close()
	}
}

// runPhase dials the clients, warms up, and measures for c.seconds;
// mark, when set, runs between the two. index separates the random
// streams of successive phases. pop is the population the writer
// changes, nil on read-only workloads.
func (c *config) runPhase(srv *serving, index int, traced bool, pop *population, mark func()) (*phase, error) {
	addr, tl, err := srv.listen(traced)
	if err != nil {
		return nil, err
	}
	p := &phase{tl: tl}
	steps := make([]func(*stream), len(c.w.conns))
	for i, cn := range c.w.conns {
		s, err := dialStream(addr, c.seed*1000+int64(index*len(c.w.conns)+i), traced, pop)
		if err != nil {
			p.close()
			return nil, err
		}
		p.streams = append(p.streams, s)
		steps[i] = cn.step
	}
	t0 := time.Now()
	runLoops(p.streams, steps, c.warmup)
	if w := c.w.writer(); w >= 0 {
		writes := func() int { return p.streams[w].attempts[opInsert] + p.streams[w].attempts[opDelete] }
		for writes() < c.warmupWrites {
			if time.Since(t0) >= warmupLimit {
				fmt.Fprintf(c.log, "# warm-up: %d of %d writes within %v; measuring anyway\n", writes(), c.warmupWrites, warmupLimit)
				break
			}
			runLoops(p.streams, steps, warmupStep)
		}
		fmt.Fprintf(c.log, "# warm-up %.3gs, %d writes\n", time.Since(t0).Seconds(), writes())
	}
	p.warmAttempts, p.warmErrors = p.tally()
	for _, s := range p.streams {
		s.reset()
	}
	if mark != nil {
		mark()
	}
	runLoops(p.streams, steps, c.seconds)
	return p, nil
}

// endToEnd computes the end-to-end metrics of a phase.
type endToEnd struct {
	queriesPerS  float64
	queryP50     time.Duration
	queryP90     time.Duration
	conn2P50     time.Duration
	conn2P90     time.Duration
	conn2OpsPerS float64 // requests per second on connection 2
	conn1, conn2 latencies
	byKind       [numOps]latencies // every stream's samples, by request kind
}

func (c *config) endToEnd(p *phase) endToEnd {
	var e endToEnd
	for _, s := range p.streams {
		e.queriesPerS += float64(s.points) / s.elapsed.Seconds()
	}
	for _, s := range p.streams {
		for k := range s.lat {
			e.byKind[k] = append(e.byKind[k], s.lat[k]...)
		}
	}
	s1, s2 := p.streams[0], p.streams[1]
	e.conn1 = append(latencies(nil), s1.lat[c.w.conns[0].kind]...)
	e.conn2 = append(latencies(nil), s2.lat[c.w.conns[1].kind]...)
	e.queryP50, e.queryP90 = e.conn1.quantile(0.5), e.conn1.quantile(0.9)
	e.conn2P50, e.conn2P90 = e.conn2.quantile(0.5), e.conn2.quantile(0.9)
	e.conn2OpsPerS = float64(s2.requests) / s2.elapsed.Seconds()
	return e
}

// quiesce lets armed background compactions finish after the writes
// stop (the maintainer's tick re-arms stranded slack), then stops the
// maintainer so the oracle sees a quiet DB.
func (c *config) quiesce(db *uvdiagram.DB) error {
	mt := db.Maintainer()
	if mt == nil {
		return nil
	}
	defer mt.Stop()
	if c.w.compactSlack <= 0 {
		return nil
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		busy := false
		for _, st := range db.ShardStats() {
			busy = busy || st.Slack >= int64(c.w.compactSlack)
		}
		if !busy {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("background compaction did not settle within 60s")
		}
		mt.Tick()
		time.Sleep(20 * time.Millisecond)
	}
}
