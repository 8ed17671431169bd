package exp

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"uvdiagram/internal/core"
	"uvdiagram/internal/core3"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom3"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
	"uvdiagram/internal/uncertain3"
)

// OrderKJSONPath and UV3JSONPath are where RunParity records the
// engine-parity measurements (the CI and README baseline artifacts of
// the order-k and 3D fast paths).
const (
	OrderKJSONPath = "BENCH_orderk.json"
	UV3JSONPath    = "BENCH_uv3.json"
)

// parityRow is one engine's reference-vs-fast-path measurement.
type parityRow struct {
	N                int     `json:"n"`
	Workers          int     `json:"workers"`
	ReferenceBuildMS float64 `json:"reference_build_ms"`
	OptimizedBuildMS float64 `json:"optimized_build_ms"`
	SpeedupX         float64 `json:"build_speedup_x"`
	BuildNSPerObj    float64 `json:"build_ns_per_obj"`
	RefAllocsPerObj  float64 `json:"reference_derive_allocs_per_obj"`
	OptAllocsPerObj  float64 `json:"optimized_derive_allocs_per_obj"`
	CRSetsIdentical  bool    `json:"cr_sets_bitwise_identical"`
	StatsIdentical   bool    `json:"index_stats_identical"`
	AnswersIdentical bool    `json:"query_answers_bitwise_identical"`
}

type parityReport struct {
	ReportHeader
	Description string         `json:"description"`
	Environment map[string]any `json:"environment"`
	Rows        []parityRow    `json:"rows"`
	Notes       string         `json:"notes"`
}

func parityEnvironment(sc Scale) map[string]any {
	return map[string]any{
		"goos":  runtime.GOOS,
		"cpu":   fmt.Sprintf("%d cores", runtime.NumCPU()),
		"go":    runtime.Version(),
		"scale": sc.Name,
	}
}

// RunParity measures the order-k and 3D builds on the parallel,
// scratch-threaded fast path against the retained reference loops
// (core.BuildOrderKReference, core3.Build3Reference) on the same
// hardware, verifying bitwise-identical cr-sets, index stats and query
// answers along the way — a mismatch fails the experiment. It writes
// BENCH_orderk.json and BENCH_uv3.json.
func RunParity(sc Scale, progress func(string)) (*Table, error) {
	t := &Table{
		ID:    "parity",
		Title: "Engine parity: order-k and 3D builds, reference vs parallel fast path",
		Columns: []string{"engine", "n", "workers", "ref build", "opt build", "speedup",
			"derive allocs/obj", "answers"},
		Notes: []string{
			"ref/opt build: full index construction wall clock (retained single-threaded reference vs Workers-parallel scratch-threaded fast path)",
			"derive allocs/obj: heap allocations per object derivation with a long-lived scratch (reference in parentheses)",
			"cr-sets, index stats and query answers (PossibleKNN / 3D PNN) verified bitwise identical between the paths",
		},
	}
	const workers = 4

	// Order-k engine at uvbench scale.
	kRow, err := runOrderKParity(sc, workers, progress)
	if err != nil {
		return nil, err
	}
	t.AddRow("orderk", fmt.Sprintf("%d", kRow.N), fmt.Sprintf("%d", workers),
		fmt.Sprintf("%.0fms", kRow.ReferenceBuildMS), fmt.Sprintf("%.0fms", kRow.OptimizedBuildMS),
		fmt.Sprintf("%.2fx", kRow.SpeedupX),
		fmt.Sprintf("%.1f (%.0f)", kRow.OptAllocsPerObj, kRow.RefAllocsPerObj), "identical")
	kReport := parityReport{
		ReportHeader: newReportHeader("orderk"),
		Description:  fmt.Sprintf("Order-k build parity sweep: uvbench -exp parity -scale %s. Uniform dataset, k=2, paper defaults (256 region samples), BuildOrderK at Workers=%d vs BuildOrderKReference.", sc.Name, workers),
		Environment:  parityEnvironment(sc),
		Rows:         []parityRow{*kRow},
		Notes:        "Acceptance: build_speedup_x >= 2 at Workers=4 with every *_identical flag true and optimized allocs/obj at least 10x below the reference.",
	}
	if err := writeParityReport(OrderKJSONPath, kReport, progress); err != nil {
		return nil, err
	}

	// 3D engine at uvbench scale.
	row3, err := runUV3Parity(sc, workers, progress)
	if err != nil {
		return nil, err
	}
	t.AddRow("uv3", fmt.Sprintf("%d", row3.N), fmt.Sprintf("%d", workers),
		fmt.Sprintf("%.0fms", row3.ReferenceBuildMS), fmt.Sprintf("%.0fms", row3.OptimizedBuildMS),
		fmt.Sprintf("%.2fx", row3.SpeedupX),
		fmt.Sprintf("%.1f (%.0f)", row3.OptAllocsPerObj, row3.RefAllocsPerObj), "identical")
	report3 := parityReport{
		ReportHeader: newReportHeader("uv3"),
		Description:  fmt.Sprintf("3D build parity sweep: uvbench -exp parity -scale %s. Uniform spheres, 1024 Fibonacci directions, Build3 at Workers=%d vs Build3Reference.", sc.Name, workers),
		Environment:  parityEnvironment(sc),
		Rows:         []parityRow{*row3},
		Notes:        "Acceptance: build_speedup_x >= 2 at Workers=4 with every *_identical flag true and optimized allocs/obj at least 10x below the reference.",
	}
	if err := writeParityReport(UV3JSONPath, report3, progress); err != nil {
		return nil, err
	}
	return t, nil
}

func runOrderKParity(sc Scale, workers int, progress func(string)) (*parityRow, error) {
	n := sc.MidN
	const k = 2
	cfg := datagen.Config{N: n, Side: sc.Side, Diameter: sc.Diameter, Seed: sc.Seed}
	objs := datagen.Uniform(cfg)
	domain := cfg.Domain()
	store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		return nil, err
	}
	opts := core.DefaultBuildOptions()
	tree := core.BuildHelperRTree(store, opts.Fanout)
	row := &parityRow{N: n, Workers: workers}

	progress(fmt.Sprintf("parity: orderk n=%d k=%d reference build", n, k))
	t0 := time.Now()
	refIx, refStats, err := core.BuildOrderKReference(store, domain, tree, k, opts)
	if err != nil {
		return nil, err
	}
	refDur := time.Since(t0)
	row.ReferenceBuildMS = durMS(refDur)

	progress(fmt.Sprintf("parity: orderk n=%d k=%d fast-path build (Workers=%d)", n, k, workers))
	opts.Workers = workers
	t1 := time.Now()
	ix, stats, err := core.BuildOrderK(store, domain, tree, k, opts)
	if err != nil {
		return nil, err
	}
	optDur := time.Since(t1)
	row.OptimizedBuildMS = durMS(optDur)
	row.SpeedupX = float64(refDur) / float64(optDur)
	row.BuildNSPerObj = float64(optDur.Nanoseconds()) / float64(n)

	row.CRSetsIdentical = true
	for id := int32(0); int(id) < n; id++ {
		if !equalIDSlices(ix.CRObjects(id), refIx.CRObjects(id)) {
			row.CRSetsIdentical = false
		}
	}
	row.StatsIdentical = stats.SumCR == refStats.SumCR && stats.Index == refStats.Index
	row.AnswersIdentical = true
	for _, q := range datagen.Queries(64, sc.Side, sc.Seed+5) {
		got, _, err := ix.PossibleKNN(q, nil)
		if err != nil {
			return nil, err
		}
		want, _, err := refIx.PossibleKNN(q, nil)
		if err != nil {
			return nil, err
		}
		if !equalIDSlices(got, want) {
			row.AnswersIdentical = false
		}
	}
	if !row.CRSetsIdentical || !row.StatsIdentical || !row.AnswersIdentical {
		return nil, fmt.Errorf("parity: order-k fast path diverged from the reference (crSets=%v stats=%v answers=%v)",
			row.CRSetsIdentical, row.StatsIdentical, row.AnswersIdentical)
	}

	// Steady-state allocation profile of one object derivation: a first
	// pass over the measured objects saturates the scratch pools (bound
	// rows, candidate buffers) so the measured pass sees the arena a
	// long-running worker reaches, not its growth.
	dense := store.Dense()
	scD := core.NewDeriveScratch()
	for w := 0; w < 64; w++ {
		core.DeriveOrderKCR(tree, dense[w%n], dense, domain, k, opts.RegionSamples, scD)
	}
	var i int
	row.OptAllocsPerObj = allocsPerRun(64, func() {
		core.DeriveOrderKCR(tree, dense[i%n], dense, domain, k, opts.RegionSamples, scD)
		i++
	})
	i = 0
	row.RefAllocsPerObj = allocsPerRun(16, func() {
		core.DeriveOrderKCRReference(tree, dense[i%n], dense, domain, k, opts.RegionSamples)
		i++
	})
	progress(fmt.Sprintf("parity: orderk ref %v, opt %v (%.2fx), allocs/obj %.1f (ref %.0f)",
		refDur.Round(time.Millisecond), optDur.Round(time.Millisecond), row.SpeedupX,
		row.OptAllocsPerObj, row.RefAllocsPerObj))
	return row, nil
}

func runUV3Parity(sc Scale, workers int, progress func(string)) (*parityRow, error) {
	n := 1500
	if sc.MidN < n {
		n = sc.MidN
	}
	side := 1000.0
	objs := uniformObjs3(n, side, sc.Seed+6)
	domain := geom3.Cube(side)
	opts := core3.DefaultOptions3()
	row := &parityRow{N: n, Workers: workers}

	progress(fmt.Sprintf("parity: uv3 n=%d reference build", n))
	t0 := time.Now()
	refIx, refStats, err := core3.Build3Reference(objs, domain, opts)
	if err != nil {
		return nil, err
	}
	refDur := time.Since(t0)
	row.ReferenceBuildMS = durMS(refDur)

	progress(fmt.Sprintf("parity: uv3 n=%d fast-path build (Workers=%d)", n, workers))
	opts.Workers = workers
	t1 := time.Now()
	ix, stats, err := core3.Build3(objs, domain, opts)
	if err != nil {
		return nil, err
	}
	optDur := time.Since(t1)
	row.OptimizedBuildMS = durMS(optDur)
	row.SpeedupX = float64(refDur) / float64(optDur)
	row.BuildNSPerObj = float64(optDur.Nanoseconds()) / float64(n)

	row.CRSetsIdentical = true
	for id := int32(0); int(id) < n; id++ {
		if !equalIDSlices(ix.CRObjects(id), refIx.CRObjects(id)) {
			row.CRSetsIdentical = false
		}
	}
	row.StatsIdentical = stats.SumCR == refStats.SumCR && stats.Index == refStats.Index
	row.AnswersIdentical = true
	for qi := 0; qi < 32; qi++ {
		q := geom3.P3(side*float64(qi*7%32)/32, side*float64(qi*11%32)/32, side*float64(qi*13%32)/32)
		got, _, err := ix.PNN(q)
		if err != nil {
			return nil, err
		}
		want, _, err := refIx.PNN(q)
		if err != nil {
			return nil, err
		}
		if len(got) != len(want) {
			row.AnswersIdentical = false
			continue
		}
		for j := range got {
			if got[j] != want[j] {
				row.AnswersIdentical = false
			}
		}
	}
	if !row.CRSetsIdentical || !row.StatsIdentical || !row.AnswersIdentical {
		return nil, fmt.Errorf("parity: 3D fast path diverged from the reference (crSets=%v stats=%v answers=%v)",
			row.CRSetsIdentical, row.StatsIdentical, row.AnswersIdentical)
	}

	grid := core3.NewHashGrid3(objs, domain, 0)
	dirs := geom3.FibonacciSphere(opts.Dirs)
	sc3 := core3.NewDeriveScratch3()
	for w := 0; w < 64; w++ { // saturate the scratch pools first (see runOrderKParity)
		core3.DeriveCR3(grid, objs[w%n], objs, domain, dirs, sc3)
	}
	var i int
	row.OptAllocsPerObj = allocsPerRun(64, func() {
		core3.DeriveCR3(grid, objs[i%n], objs, domain, dirs, sc3)
		i++
	})
	i = 0
	row.RefAllocsPerObj = allocsPerRun(16, func() {
		core3.DeriveCR3Reference(grid, objs[i%n], objs, domain, dirs)
		i++
	})
	progress(fmt.Sprintf("parity: uv3 ref %v, opt %v (%.2fx), allocs/obj %.1f (ref %.0f)",
		refDur.Round(time.Millisecond), optDur.Round(time.Millisecond), row.SpeedupX,
		row.OptAllocsPerObj, row.RefAllocsPerObj))
	return row, nil
}

// uniformObjs3 generates a deterministic uniform 3D population (the 3D
// counterpart of datagen.Uniform at uvbench scale).
func uniformObjs3(n int, side float64, seed int64) []uncertain3.Object3 {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]uncertain3.Object3, n)
	for i := range objs {
		r := 2 + rng.Float64()*4
		objs[i] = uncertain3.New3(int32(i), geom3.Sphere{
			C: geom3.P3(r+rng.Float64()*(side-2*r), r+rng.Float64()*(side-2*r), r+rng.Float64()*(side-2*r)),
			R: r,
		}, uncertain3.PaperGaussian3())
	}
	return objs
}

func equalIDSlices(a, b []int32) bool {
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

func writeParityReport(path string, report parityReport, progress func(string)) error {
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	progress("parity: wrote " + path)
	return nil
}
