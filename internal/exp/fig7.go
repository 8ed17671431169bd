package exp

import (
	"fmt"

	"uvdiagram/internal/core"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
)

// buildWith runs one core.Build with the given strategy and returns its
// statistics.
func buildWith(objs []uncertain.Object, domain geom.Rect, strategy core.Strategy, sc Scale) (core.BuildStats, error) {
	store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		return core.BuildStats{}, err
	}
	opts := core.DefaultBuildOptions()
	opts.Strategy = strategy
	opts.SeedK = sc.SeedK
	// Half the default angular resolution for exact cells: the ICR/Basic
	// timings keep their shape and the sweeps stay laptop-sized.
	opts.CellSamples = 360
	tree := core.BuildHelperRTree(store, opts.Fanout)
	_, stats, err := core.Build(store, domain, tree, opts)
	return stats, err
}

// fitQuadratic least-squares fits t ≈ a·n² through the origin and
// returns a (for extrapolating Basic's cost, Figure 7(a)).
func fitQuadratic(ns []int, secs []float64) float64 {
	num, den := 0.0, 0.0
	for i := range ns {
		x := float64(ns[i]) * float64(ns[i])
		num += x * secs[i]
		den += x * x
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// RunFig7Construction regenerates Figures 7(a)–7(e): construction cost
// of Basic vs ICR vs IC, pruning ratios, and time breakdowns. Basic is
// executed only at sc.BasicSizes and extrapolated quadratically to the
// sweep sizes (the paper reports 97 hours at 50k — the point of the
// figure is the growth curve, which the fit preserves).
func RunFig7Construction(sc Scale, progress func(string)) ([]*Table, error) {
	if progress == nil {
		progress = func(string) {}
	}
	a := &Table{ID: "fig7a", Title: "construction time vs |O|: Basic vs ICR vs IC (paper: Basic explodes; 97h at 50k)",
		Columns: []string{"|O|", "Tc(Basic) s", "Tc(ICR) s", "Tc(IC) s"}}
	bt := &Table{ID: "fig7b", Title: "pruning ratio pc vs |O| (paper at 40k: I 90.9%, C 95.5%)",
		Columns: []string{"|O|", "I-pruning", "C-pruning"}}
	c := &Table{ID: "fig7c", Title: "Tc of ICR vs IC (paper: IC ≈ 10% of ICR at 70k)",
		Columns: []string{"|O|", "Tc(ICR) s", "Tc(IC) s", "IC/ICR"}}
	d := &Table{ID: "fig7d", Title: "ICR time breakdown (paper: generating r-objects dominates)",
		Columns: []string{"|O|", "I+C pruning", "gen r-object", "indexing"}}
	e := &Table{ID: "fig7e", Title: "IC time breakdown (paper: pruning + indexing only)",
		Columns: []string{"|O|", "I+C pruning", "indexing"}}

	// Measure Basic at its small sizes.
	var basicNs []int
	var basicSecs []float64
	basicAt := map[int]float64{}
	for _, n := range sc.BasicSizes {
		cfg := datagen.Config{N: n, Side: sc.Side, Diameter: sc.Diameter, Seed: sc.Seed}
		objs := datagen.Uniform(cfg)
		st, err := buildWith(objs, cfg.Domain(), core.StrategyBasic, sc)
		if err != nil {
			return nil, err
		}
		basicNs = append(basicNs, n)
		basicSecs = append(basicSecs, st.TotalDur.Seconds())
		basicAt[n] = st.TotalDur.Seconds()
		progress(fmt.Sprintf("fig7a Basic |O|=%d done (%.1fs)", n, st.TotalDur.Seconds()))
	}
	quad := fitQuadratic(basicNs, basicSecs)

	for _, n := range sc.Sizes {
		cfg := datagen.Config{N: n, Side: sc.Side, Diameter: sc.Diameter, Seed: sc.Seed}
		objs := datagen.Uniform(cfg)
		domain := cfg.Domain()
		icr, err := buildWith(objs, domain, core.StrategyICR, sc)
		if err != nil {
			return nil, err
		}
		ic, err := buildWith(objs, domain, core.StrategyIC, sc)
		if err != nil {
			return nil, err
		}
		basicStr := fmt.Sprintf("~%.1f (extrap)", quad*float64(n)*float64(n))
		if secs, ok := basicAt[n]; ok {
			basicStr = fmt.Sprintf("%.1f", secs)
		}
		icrS := icr.TotalDur.Seconds()
		icS := ic.TotalDur.Seconds()
		a.AddRow(fmt.Sprintf("%d", n), basicStr, fmt.Sprintf("%.1f", icrS), fmt.Sprintf("%.1f", icS))
		bt.AddRow(fmt.Sprintf("%d", n), pct(ic.IPruneRatio()), pct(ic.CPruneRatio()))
		c.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.1f", icrS), fmt.Sprintf("%.1f", icS),
			fmt.Sprintf("%.2f", icS/icrS))
		prune := icr.SeedDur + icr.PruneDur
		d.AddRow(fmt.Sprintf("%d", n),
			pct(prune.Seconds()/icrS),
			pct(icr.RefineDur.Seconds()/icrS),
			pct(icr.IndexDur.Seconds()/icrS))
		pruneIC := ic.SeedDur + ic.PruneDur
		e.AddRow(fmt.Sprintf("%d", n),
			pct(pruneIC.Seconds()/icS),
			pct(ic.IndexDur.Seconds()/icS))
		progress(fmt.Sprintf("fig7a-e |O|=%d done (ICR %.1fs, IC %.1fs)", n, icrS, icS))
	}
	for _, n := range sc.BasicSizes {
		a.Notes = append(a.Notes, fmt.Sprintf("Basic measured at |O|=%d: %.1fs", n, basicAt[n]))
	}
	a.Notes = append(a.Notes, fmt.Sprintf("Basic extrapolation: Tc ≈ %.3g·n² s (quadratic fit)", quad))
	return []*Table{a, bt, c, d, e}, nil
}

// RunFig7f regenerates Figure 7(f): construction time vs uncertainty
// region size, ICR vs IC (paper: ICR grows sharply, IC stays flat).
func RunFig7f(sc Scale, progress func(string)) (*Table, error) {
	if progress == nil {
		progress = func(string) {}
	}
	t := &Table{ID: "fig7f", Title: fmt.Sprintf("construction time vs uncertainty diameter at |O|=%d", sc.MidN),
		Columns: []string{"diameter", "Tc(ICR) s", "Tc(IC) s"}}
	for _, dia := range sc.Diameters {
		cfg := datagen.Config{N: sc.MidN, Side: sc.Side, Diameter: dia, Seed: sc.Seed + 3}
		objs := datagen.Uniform(cfg)
		domain := cfg.Domain()
		icr, err := buildWith(objs, domain, core.StrategyICR, sc)
		if err != nil {
			return nil, err
		}
		ic, err := buildWith(objs, domain, core.StrategyIC, sc)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", dia),
			fmt.Sprintf("%.1f", icr.TotalDur.Seconds()),
			fmt.Sprintf("%.1f", ic.TotalDur.Seconds()))
		progress(fmt.Sprintf("fig7f diameter=%.0f done", dia))
	}
	return t, nil
}

// RunFig7g regenerates Figure 7(g): IC construction time under skewed
// center distributions (paper: smaller σ — more skew — costs more).
func RunFig7g(sc Scale, progress func(string)) (*Table, error) {
	if progress == nil {
		progress = func(string) {}
	}
	t := &Table{ID: "fig7g", Title: fmt.Sprintf("IC construction time vs center skew σ at |O|=%d", sc.MidN),
		Columns: []string{"sigma", "Tc(IC) s", "avg |CR|"}}
	for _, sigma := range sc.Sigmas {
		cfg := datagen.Config{N: sc.MidN, Side: sc.Side, Diameter: sc.Diameter, Seed: sc.Seed + 5}
		objs := datagen.Skewed(cfg, sigma)
		ic, err := buildWith(objs, cfg.Domain(), core.StrategyIC, sc)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", sigma),
			fmt.Sprintf("%.1f", ic.TotalDur.Seconds()),
			fmt.Sprintf("%.1f", ic.AvgCR()))
		progress(fmt.Sprintf("fig7g sigma=%.0f done", sigma))
	}
	return t, nil
}

// RunFig7h regenerates Figure 7(h): UV-partition query time vs query
// range size (paper: grows with the range, stays small).
func RunFig7h(sc Scale, progress func(string)) (*Table, error) {
	if progress == nil {
		progress = func(string) {}
	}
	t := &Table{ID: "fig7h", Title: fmt.Sprintf("UV-partition query time vs range size at |O|=%d", sc.MidN),
		Columns: []string{"range size", "Tq ms", "avg partitions"}}
	cfg := datagen.Config{N: sc.MidN, Side: sc.Side, Diameter: sc.Diameter, Seed: sc.Seed + 9}
	objs := datagen.Uniform(cfg)
	store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		return nil, err
	}
	opts := core.DefaultBuildOptions()
	opts.SeedK = sc.SeedK
	ix, _, err := core.Build(store, cfg.Domain(), nil, opts)
	if err != nil {
		return nil, err
	}
	centers := datagen.Queries(sc.Queries, sc.Side, sc.Seed+13)
	for _, size := range sc.RangeSizes {
		var totalMs float64
		var totalParts int
		for _, q := range centers {
			r := geom.NewRect(
				clampF(q.X-size/2, 0, sc.Side), clampF(q.Y-size/2, 0, sc.Side),
				clampF(q.X+size/2, 0, sc.Side), clampF(q.Y+size/2, 0, sc.Side))
			parts, dur := ix.Partitions(r)
			totalMs += dur.Seconds() * 1000
			totalParts += len(parts)
		}
		n := float64(len(centers))
		t.AddRow(fmt.Sprintf("%.0f", size), fmt.Sprintf("%.3f", totalMs/n),
			fmt.Sprintf("%.1f", float64(totalParts)/n))
		progress(fmt.Sprintf("fig7h range=%.0f done", size))
	}
	return t, nil
}

// RunSensitivity regenerates the Tθ sensitivity test of Section VI-B.1:
// a wide range of Tθ barely changes the index, while very small values
// suppress splitting and degrade the structure into page lists.
func RunSensitivity(sc Scale, progress func(string)) (*Table, error) {
	if progress == nil {
		progress = func(string) {}
	}
	t := &Table{ID: "sensitivity", Title: fmt.Sprintf("Tθ sensitivity at |O|=%d", sc.MidN),
		Columns: []string{"Tθ", "Tc(IC) s", "non-leaf", "avg leaf entries", "Tq(UVD) ms"}}
	cfg := datagen.Config{N: sc.MidN, Side: sc.Side, Diameter: sc.Diameter, Seed: sc.Seed + 17}
	objs := datagen.Uniform(cfg)
	store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		return nil, err
	}
	tree := core.BuildHelperRTree(store, core.DefaultBuildOptions().Fanout)
	queries := datagen.Queries(sc.Queries, sc.Side, sc.Seed+19)
	for _, theta := range sc.Thetas {
		opts := core.DefaultBuildOptions()
		opts.SeedK = sc.SeedK
		opts.Index.SplitTheta = theta
		ix, stats, err := core.Build(store, cfg.Domain(), tree, opts)
		if err != nil {
			return nil, err
		}
		var totalMs float64
		for _, q := range queries {
			_, st, err := ix.PNN(q, nil, nil)
			if err != nil {
				return nil, err
			}
			totalMs += st.Total().Seconds() * 1000
		}
		ist := stats.Index
		t.AddRow(fmt.Sprintf("%.1f", theta),
			fmt.Sprintf("%.1f", stats.TotalDur.Seconds()),
			fmt.Sprintf("%d", ist.NonLeaf),
			fmt.Sprintf("%.1f", ist.AvgEntries),
			ms(totalMs/float64(len(queries))))
		progress(fmt.Sprintf("sensitivity Tθ=%.1f done", theta))
	}
	return t, nil
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
