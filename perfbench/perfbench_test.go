package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks
// the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyRun runs a workload at the self-test scale: 300 objects, one
// set-up, a short warm-up of few writes.
func tinyRun(t *testing.T, name string, trace bool, seconds time.Duration) (*result, string) {
	t.Helper()
	c, err := newConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c.w.n, c.setupRepeats, c.warmup, c.warmupWrites = 300, 1, 100*time.Millisecond, 40
	c.seed, c.seconds, c.trace, c.dir, c.log = 7, seconds, trace, t.TempDir(), &out
	res, err := c.run()
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	return res, out.String()
}

// TestTinyScale runs every workload at a tiny scale, untraced and
// traced, and checks that the oracle passes and that every metric
// BENCHMARK.json names is reported with its unit: end-to-end ones
// nonzero, per-layer ones nonzero where the workload's traffic moves
// them and zero on the layers workloads.json says it bypasses.
func TestTinyScale(t *testing.T) {
	b := loadBenchmarkFile(t)
	rec := loadWorkloadsFile(t)
	for _, w := range b.Workloads {
		for trace, want := range [][]metricSpec{b.EndToEnd, b.PerLayer} {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				seconds := 300 * time.Millisecond
				if trace == 1 {
					seconds = tracedSeconds
				}
				res, out := tinyRun(t, w.Name, trace == 1, seconds)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("oracle: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not reported", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case trace == 0 && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace == 0 {
					return
				}
				for _, name := range moved[w.Name] {
					if v := res.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s = %v; the workload's traffic should move it", name, v)
					}
				}
				bypassed := rec.workload(t, w.Name).Bypasses
				for _, m := range b.PerLayer {
					if v := res.Metrics[m.Name].Value; slices.Contains(bypassed, layerOf(m.Name)) && v != 0 {
						t.Errorf("%s = %v; workloads.json says the workload bypasses %s", m.Name, v, layerOf(m.Name))
					}
				}
				if t.Failed() {
					t.Logf("output:\n%s", out)
				}
			})
		}
	}
}

// tracedSeconds is the traced self-test's measured time per phase:
// long enough for maintainer ticks (every 2 s) to land in it.
const tracedSeconds = 2500 * time.Millisecond

// moved lists, per workload, the per-layer metrics its traffic must
// move at the self-test scale. Left out: counters that need more
// traffic or time than the self-test gives them (background
// compactions, leaf-cache evictions, vacuumed pages, disk growth,
// which compaction can make negative), and build.refine_s, which is 0
// at 300 objects.
var moved = map[string][]string{
	"pnn": {
		"server.pnn_service_us", "server.batch_pnn_service_us", "wire.pnn_transit_us", "wire.batch_pnn_transit_us",
		"uvdiagram.pnn_us", "uvdiagram.route_us", "uvdiagram.batch_us_per_point",
		"core.traverse_us", "core.index_ios_per_query", "core.leaf_entries_per_query", "core.candidates_per_query", "core.depth",
		"uncertain.retrieve_us", "uncertain.object_ios_per_query",
		"prob.integrate_us", "prob.us_per_candidate", "prob.share_of_pnn",
		"lru.leaf_hit_ratio",
		"pager.reads_per_query",
		"build.seed_s", "build.prune_s", "build.index_s", "build.avg_cr", "build.c_prune_ratio",
		"persist.save_s", "persist.open_s", "persist.snapshot_mb",
	},
	"knn_mmap": {
		"server.knn_service_us", "wire.knn_transit_us",
		"uvdiagram.knn_us",
		"rtree.knn_candidates_us", "rtree.candidates_per_query",
		"pager.mapped_mb", "pager.resident_mb", "pager.reads_per_query",
		"build.seed_s", "build.prune_s", "build.index_s", "build.avg_cr", "build.c_prune_ratio",
		"persist.save_s", "persist.open_s", "persist.snapshot_mb",
	},
	"churn": {
		"server.pnn_service_us", "server.insert_service_us", "server.delete_service_us",
		"wire.pnn_transit_us", "wire.insert_transit_us", "wire.delete_transit_us",
		"uvdiagram.pnn_us", "uvdiagram.route_us", "uvdiagram.insert_us", "uvdiagram.delete_us",
		"core.traverse_us", "core.index_ios_per_query", "core.leaf_entries_per_query", "core.candidates_per_query", "core.depth",
		"uncertain.retrieve_us", "uncertain.object_ios_per_query",
		"prob.integrate_us", "prob.us_per_candidate", "prob.share_of_pnn",
		"pager.reads_per_query",
		"mutation.dependents_per_delete", "mutation.rederived_per_delete", "mutation.rederive_ratio", "mutation.repaired_per_insert",
		"maint.ticks_per_s", "db.slack",
		"build.seed_s", "build.prune_s", "build.index_s", "build.avg_cr", "build.c_prune_ratio",
		"persist.save_s", "persist.open_s", "persist.snapshot_mb",
	},
}

// layerOf is the layer a per-layer metric belongs to: its name up to
// the first dot.
func layerOf(metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	return layer
}

// workloadsFile is workloads.json, the descriptive record of the
// workloads.
type workloadsFile struct {
	Diameter      float64          `json:"diameter"`
	Side          float64          `json:"side"`
	Shards        int              `json:"shards"`
	Clients       int              `json:"clients"`
	SetupRepeats  int              `json:"setup_repeats"`
	WarmupS       float64          `json:"warmup_s"`
	WarmupWrites  int              `json:"warmup_writes"`
	BatchPoints   int              `json:"batch_points"`
	BatchWindow   float64          `json:"batch_window"`
	K             int              `json:"knn_k"`
	OracleSamples int              `json:"oracle_samples"`
	ProbTolerance float64          `json:"prob_tolerance"`
	Workloads     []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name         string   `json:"name"`
	N            int      `json:"n"`
	Pager        string   `json:"pager"`
	Maintain     bool     `json:"maintain"`
	CompactSlack int      `json:"compact_slack"`
	ConnKinds    []string `json:"conn_kinds"`
	Stresses     []string `json:"stresses"`
	Bypasses     []string `json:"bypasses"`
}

func loadWorkloadsFile(t *testing.T) workloadsFile {
	t.Helper()
	raw, err := os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var f workloadsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f workloadsFile) workload(t *testing.T, name string) workloadRecord {
	t.Helper()
	for _, w := range f.Workloads {
		if w.Name == name {
			return w
		}
	}
	t.Fatalf("workloads.json has no workload %q", name)
	return workloadRecord{}
}

// TestWorkloadsRecord checks that workloads.json and BENCHMARK.json
// describe the workloads bench.go defines, and that every per-layer
// metric's layer is recorded as stressed or bypassed by each workload.
func TestWorkloadsRecord(t *testing.T) {
	f := loadWorkloadsFile(t)
	shared := workloadsFile{
		Diameter: diameter, Side: side, Shards: shards, Clients: clients,
		SetupRepeats: setupRepeats, WarmupS: warmup.Seconds(), WarmupWrites: warmupWrites, BatchPoints: batchPoints, BatchWindow: batchWindow,
		K: knnK, OracleSamples: oracleSamples, ProbTolerance: probTolerance, Workloads: f.Workloads,
	}
	if !reflect.DeepEqual(f, shared) {
		t.Errorf("workloads.json shared settings %+v, bench.go has %+v", f, shared)
	}
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) || len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.json %d, bench.go %d", len(b.Workloads), len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %s, bench.go has %s", i, b.Workloads[i].Name, w.name)
		}
		rec := f.workload(t, w.name)
		var kinds []string
		for _, cn := range w.conns {
			kinds = append(kinds, opNames[cn.kind])
		}
		want := workloadRecord{Name: w.name, N: w.n, Pager: w.pager, Maintain: w.maintain, CompactSlack: w.compactSlack,
			ConnKinds: kinds, Stresses: rec.Stresses, Bypasses: rec.Bypasses}
		if !reflect.DeepEqual(rec, want) {
			t.Errorf("workloads.json records %+v, bench.go has %+v", rec, want)
		}
		for _, m := range b.PerLayer {
			layer := layerOf(m.Name)
			in, out := slices.Contains(rec.Stresses, layer), slices.Contains(rec.Bypasses, layer)
			if layer != "trace" && in == out {
				t.Errorf("%s: layer %s must be listed under exactly one of stresses and bypasses", w.name, layer)
			}
		}
		for _, layer := range rec.Stresses {
			if !slices.ContainsFunc(moved[w.name], func(m string) bool { return layerOf(m) == layer }) {
				t.Errorf("%s stresses %s, but the self-test expects none of its metrics to move", w.name, layer)
			}
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		name string
	}{{5, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {10000, "p99.9"}} {
		if _, name := tailQuantile(c.n); name != c.name {
			t.Errorf("tailQuantile(%d) = %s, want %s", c.n, name, c.name)
		}
	}
	l := latencies{5, 1, 4, 2, 3}
	if got := l.quantile(0.5); got != 3 {
		t.Errorf("median of 1..5 = %v", got)
	}
}

// TestFrameScan feeds two frames split at awkward offsets and checks
// that each request is paired with the next response written.
func TestFrameScan(t *testing.T) {
	frame := func(body int) []byte {
		b := []byte{byte(body), 0, 0, 0}
		return append(b, make([]byte, body)...)
	}
	stream := append(frame(6), frame(9)...)
	c := &tracedConn{}
	t0 := time.Unix(0, 0)
	for i, cut := range [][2]int{{0, 2}, {2, 7}, {7, 11}, {11, len(stream)}} {
		c.scan(stream[cut[0]:cut[1]], t0.Add(time.Duration(i)))
	}
	if len(c.arrivals) != 2 {
		t.Fatalf("found %d frames, want 2", len(c.arrivals))
	}
	if c.arrivals[0] != t0 || c.arrivals[1] != t0.Add(2) {
		t.Errorf("arrivals %v, want the first and third read", c.arrivals)
	}
}

func TestSampleKeepsEvenlySpaced(t *testing.T) {
	var s sample[int]
	n := 3*keptRecords + 5
	for i := 0; i < n; i++ {
		s.add(i)
	}
	if len(s.items) > keptRecords || len(s.items) < keptRecords/2 {
		t.Fatalf("kept %d items", len(s.items))
	}
	for j, v := range s.items {
		if v != j*s.stride {
			t.Fatalf("item %d is %d, want %d (stride %d)", j, v, j*s.stride, s.stride)
		}
	}
}
