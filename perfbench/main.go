// Command perfbench is the repository benchmark: it serves a generated
// UV-diagram database from an in-process server on loopback TCP, drives
// it with closed-loop clients, checks answers against brute force, and
// prints the metrics of one workload.
//
//	perfbench --workload pnn|knn_mmap|churn --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the traced per-layer measurement instead. Human-readable lines
// start with '#'; the last line of standard output is the JSON result.
// The workloads are defined in bench.go and described in workloads.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"uvdiagram"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: pnn, knn_mmap or churn")
	seed := fs.Int64("seed", 1, "seed of the generated objects and traffic")
	seconds := fs.Float64("seconds", 10, "measured seconds of traffic")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	dir := fs.String("dir", ".bench_build/run", "scratch directory for snapshots and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c, err := newConfig(*name)
	var res *result
	if err == nil {
		c.seed, c.seconds, c.trace, c.dir, c.log = *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *dir, stdout
		res, err = c.run()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func (c *config) run() (*result, error) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	host, _ := json.Marshal(hostStamp())
	fmt.Fprintf(c.log, "# host %s\n", host)
	warm := fmt.Sprintf("%gs warm-up", c.warmup.Seconds())
	if c.w.writer() >= 0 {
		warm += fmt.Sprintf(" and at least %d writes", c.warmupWrites)
	}
	fmt.Fprintf(c.log, "# workload %s seed %d: n=%d diameter=%g side=%g shards=%d pager=%s compact_slack=%d maintain=%v; %d closed-loop clients, one connection each; %gs measured after %s\n",
		c.w.name, c.seed, c.w.n, diameter, side, shards, c.w.pager, c.w.compactSlack, c.w.maintain,
		clients, c.seconds.Seconds(), warm)

	objs := c.objects()
	d, err := c.setUp(objs)
	if err != nil {
		return nil, err
	}
	defer d.close()
	srv := startServer(d.db)
	defer srv.stop()
	var pop *population
	if c.w.writer() >= 0 {
		pop = newPopulation(objs)
	}
	or := &oracle{objs: objs, tol: probTolerance, k: knnK}

	measure := c.untraced
	if c.trace {
		measure = c.traced
	}
	m, counts, err := measure(d, srv, pop, or)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: m, Attempted: counts[0], Failed: counts[1]}
	res.Attempted += or.queries
	for k := opKind(0); k < numOps; k++ {
		res.Failed += or.wrong[k]
	}
	c.reportOracle(or)
	res.Correct = res.Failed == 0
	return res, nil
}

// untraced is the end-to-end run: one measured phase of closed-loop
// traffic, then the oracle. It returns the end-to-end metrics and the
// attempted and failed request counts.
func (c *config) untraced(d *deployment, srv *serving, pop *population, or *oracle) (map[string]metric, [2]int, error) {
	var counts [2]int
	p, err := c.runPhase(srv, 0, false, pop, nil)
	if err != nil {
		return nil, counts, err
	}
	defer p.close()
	// Read before the oracle runs: its brute force is not serving.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, counts, err
	}
	e := c.endToEnd(p)
	counts[0], counts[1] = p.tally()
	if err := c.check(d.db, []*phase{p}, pop, or); err != nil {
		return nil, counts, err
	}
	c.report(d, e, rss)
	return map[string]metric{
		"setup_s":                   {d.setupMedian(), "s"},
		"queries_per_s":             {e.queriesPerS, "1/s"},
		"query_p50_ms":              {ms(e.queryP50), "ms"},
		"query_p90_ms":              {ms(e.queryP90), "ms"},
		"conn2_p50_ms":              {ms(e.conn2P50), "ms"},
		"conn2_p90_ms":              {ms(e.conn2P90), "ms"},
		"rss_peak_mb":               {rss, "MB"},
		"snapshot_bytes_per_object": {d.snapshot.bytesPerObject(), "bytes"},
	}, counts, nil
}

// tally sums a phase's attempted and failed requests.
func (p *phase) tally() (attempted, failed int) {
	for _, s := range p.streams {
		for k := opKind(0); k < numOps; k++ {
			attempted += s.attempts[k]
			failed += s.errors[k]
		}
	}
	return attempted + p.warmAttempts, failed + p.warmErrors
}

// check runs the oracle. Read-only workloads check a sample of the
// recorded answers against the generated objects. On churn the answers
// recorded while writes ran cannot be replayed against one population,
// so the check quiesces the DB, verifies every acknowledged write, and
// sends fresh PNN queries answered over the survivors.
func (c *config) check(db *uvdiagram.DB, phases []*phase, pop *population, or *oracle) error {
	if pop == nil {
		for _, p := range phases {
			for _, s := range p.streams {
				or.checkRecords(s, oracleSamples/len(phases))
			}
		}
		return nil
	}
	if err := c.quiesce(db); err != nil {
		return err
	}
	or.objs = pop.survivors()
	or.checkDurable(db, pop)
	s := phases[len(phases)-1].streams[0]
	s.reset()
	for i := 0; i < oracleSamples; i++ {
		s.sendPNN()
	}
	or.queries += oracleSamples
	for _, rec := range s.pnns.items {
		or.record(opPNN, or.pnn(rec.q, rec.ans))
	}
	for k := opKind(0); k < numOps; k++ {
		or.wrong[k] += s.errors[k] // a refused check query is a failure too
	}
	return nil
}

// report prints the end-to-end metrics under the names each workload
// is discussed by, with sample counts beside the percentiles.
func (c *config) report(d *deployment, e endToEnd, rss float64) {
	snap := d.snapshot
	fmt.Fprintf(c.log, "# setup_s %.4g s (median of %v)\n", d.setupMedian(), d.setup)
	fmt.Fprintf(c.log, "# queries_per_s %.1f 1/s\n", e.queriesPerS)
	for k, l := range e.byKind {
		if len(l) == 0 {
			continue
		}
		if opKind(k) == opKNN {
			fmt.Fprintf(c.log, "# %s_us %s\n", opNames[k], l.describe(time.Microsecond, "us"))
		} else {
			fmt.Fprintf(c.log, "# %s_ms %s\n", opNames[k], l.describe(time.Millisecond, "ms"))
		}
	}
	if c.w.writer() >= 0 {
		fmt.Fprintf(c.log, "# mutations_per_s %.1f 1/s\n", e.conn2OpsPerS)
	}
	fmt.Fprintf(c.log, "# conn2_ms %s; conn2_ops_per_s %.1f 1/s\n", e.conn2.describe(time.Millisecond, "ms"), e.conn2OpsPerS)
	fmt.Fprintf(c.log, "# snapshot_bytes_per_object %.1f bytes (%d bytes, %d objects)\n", snap.bytesPerObject(), snap.bytes, snap.objects)
	fmt.Fprintf(c.log, "# rss_peak_mb %.1f MB\n", rss)
}

func (c *config) reportOracle(or *oracle) {
	for k := opKind(0); k < numOps; k++ {
		if or.checked[k] > 0 {
			fmt.Fprintf(c.log, "# oracle %s: %d checked, %d wrong\n", opNames[k], or.checked[k], or.wrong[k])
		}
	}
	if or.first != nil {
		fmt.Fprintf(c.log, "# oracle first mismatch: %v\n", or.first)
	}
}
