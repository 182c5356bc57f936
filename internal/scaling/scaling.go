package scaling

import (
	"fmt"
	"math"
	"sort"
	"time"

	"kkt/internal/harness"
)

// Families a sweep can ladder over, in display order. Hypercube rungs
// round to the nearest power of two (the family exists only there).
var Families = []string{
	harness.FamilyGNM,
	harness.FamilyPowerLaw,
	harness.FamilyGeometric,
	harness.FamilyHypercube,
}

// Algos a sweep can measure. The KKT algorithms carry the o(m) claim;
// ghs and flood are the Θ(m)-bound comparators the separation test
// measures against.
var Algos = []string{
	harness.AlgoMSTBuildAdaptive,
	harness.AlgoSTBuild,
	harness.AlgoMSTRepair,
	harness.AlgoSTRepair,
	harness.AlgoGHS,
	harness.AlgoFlood,
}

// IsBaseline reports whether algo is one of the Θ(m)-bound comparators.
func IsBaseline(algo string) bool {
	return algo == harness.AlgoGHS || algo == harness.AlgoFlood
}

// Density knobs for the gnm family: how m grows along the size ladder.
// Constant-density ladders cannot witness o(m) — the KKT build cost is
// governed by n, so at m = Θ(n) every algorithm's cost grows linearly in
// m and the fitted exponents collapse together. The default therefore
// grows density with n, making m the dominant axis.
const (
	DensityConst = "const" // m = 3n: constant average degree
	DensitySqrt  = "sqrt"  // m = n·⌊√n⌋: average degree ~√n
	DensityQuad  = "quad"  // m = n²/8: average degree ~n/4 (the default)
)

// Densities lists the gnm density knobs, in display order.
var Densities = []string{DensityConst, DensitySqrt, DensityQuad}

// Config declares one sweep. Zero fields take the documented defaults.
type Config struct {
	// Families/Algos pick the sweep cells (the cross product). Defaults:
	// gnm × {mst-build, ghs, flood}.
	Families []string
	Algos    []string
	// Ladder is the list of rung sizes n, ascending (>= 2 rungs after
	// normalization; default 256..4096 in 5 geometric steps).
	Ladder []int
	// Seeds is the number of seeded trials per rung (default 3). Per-seed
	// slopes — fitted across rungs at a fixed trial index — feed the
	// confidence intervals and the Welch separation test.
	Seeds int
	// Seed is the base seed; per-trial seeds derive from it via the rung's
	// scenario name, exactly like the bench harness.
	Seed uint64
	// Density picks the gnm m-growth law (default quad; other families
	// have intrinsic density).
	Density string
	// Workers/Timeout pass through to harness.RunConfig.
	Workers int
	Timeout time.Duration
	// OnTrialDone, if set, is called after every finished trial (from
	// worker goroutines; must be safe for concurrent use).
	OnTrialDone func(spec harness.Spec, trial int)
}

// DefaultLadder is the stock 5-rung size ladder.
var DefaultLadder = []int{256, 512, 1024, 2048, 4096}

// normalized fills defaults and canonicalizes the ladder (sorted,
// deduplicated).
func (c Config) normalized() Config {
	if len(c.Families) == 0 {
		c.Families = []string{harness.FamilyGNM}
	}
	if len(c.Algos) == 0 {
		c.Algos = []string{harness.AlgoMSTBuildAdaptive, harness.AlgoGHS, harness.AlgoFlood}
	}
	if len(c.Ladder) == 0 {
		c.Ladder = append([]int(nil), DefaultLadder...)
	} else {
		c.Ladder = dedupeSorted(c.Ladder)
	}
	if c.Seeds <= 0 {
		c.Seeds = 3
	}
	if c.Density == "" {
		c.Density = DensityQuad
	}
	return c
}

// Validate rejects malformed sweep configs: unknown families, algorithms
// or density knobs, ladders with fewer than two rungs (no slope to fit)
// or rungs below the minimum size.
func (c Config) Validate() error {
	c = c.normalized()
	for _, f := range c.Families {
		if !contains(Families, f) {
			return fmt.Errorf("scaling: unknown family %q", f)
		}
	}
	for _, a := range c.Algos {
		if !contains(Algos, a) {
			return fmt.Errorf("scaling: unknown algorithm %q", a)
		}
	}
	if !contains(Densities, c.Density) {
		return fmt.Errorf("scaling: unknown density %q (want const, sqrt or quad)", c.Density)
	}
	if len(c.Ladder) < 2 {
		return fmt.Errorf("scaling: ladder has %d distinct rungs, want >= 2 to fit a slope", len(c.Ladder))
	}
	for _, n := range c.Ladder {
		if n < 8 {
			return fmt.Errorf("scaling: rung n=%d too small, want >= 8", n)
		}
	}
	return nil
}

// TotalTrials returns the number of seeded trials the sweep will run —
// the progress denominator. Hypercube ladders count after power-of-two
// rounding, exactly as Run builds them.
func (c Config) TotalTrials() int {
	c = c.normalized()
	total := 0
	for _, family := range c.Families {
		rungs := len(c.Ladder)
		if family == harness.FamilyHypercube {
			rungs = len(powerOfTwoLadder(c.Ladder))
		}
		total += rungs * len(c.Algos) * c.Seeds
	}
	return total
}

// Run executes the sweep: every (family × algo) cell runs the full ladder
// at Seeds trials per rung through the bench harness, then each cell's
// measured messages and bits are fitted against the generated edge count
// m on log-log axes. For every family holding both a KKT algorithm and a
// baseline, the per-seed slopes feed a one-sided Welch test of the
// separation claim. The report is seed-determined: identical configs
// marshal to byte-identical reports at any worker count.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	type cellKey struct{ family, algo string }
	var specs []harness.Spec
	cellOf := make([]cellKey, 0)
	for _, family := range cfg.Families {
		ladder := cfg.Ladder
		if family == harness.FamilyHypercube {
			ladder = powerOfTwoLadder(ladder)
			if len(ladder) < 2 {
				return nil, fmt.Errorf("scaling: hypercube ladder collapses to %d distinct power-of-two rungs, want >= 2", len(ladder))
			}
		}
		for _, algo := range cfg.Algos {
			for _, n := range ladder {
				spec := rungSpec(family, algo, n, cfg.Density)
				if err := spec.Validate(); err != nil {
					return nil, err
				}
				specs = append(specs, spec)
				cellOf = append(cellOf, cellKey{family, algo})
			}
		}
	}

	results := harness.RunAll(specs, harness.RunConfig{
		Trials:      cfg.Seeds,
		Seed:        cfg.Seed,
		Workers:     cfg.Workers,
		Timeout:     cfg.Timeout,
		OnTrialDone: cfg.OnTrialDone,
	})

	rep := &Report{
		Schema:  ReportSchema,
		Seed:    cfg.Seed,
		Seeds:   cfg.Seeds,
		Density: cfg.Density,
		Ladder:  cfg.Ladder,
	}
	for _, family := range cfg.Families {
		for _, algo := range cfg.Algos {
			cell := Cell{Family: family, Algo: algo}
			for i, res := range results {
				if cellOf[i] != (cellKey{family, algo}) {
					continue
				}
				rung := Rung{N: res.Spec.N}
				for _, t := range res.Trials {
					rung.Points = append(rung.Points, Point{
						Seed:     t.Seed,
						M:        t.GraphEdges,
						Messages: t.Messages,
						Bits:     t.Bits,
						Time:     t.Time,
						Valid:    t.Valid,
						Error:    t.Error,
					})
				}
				cell.Rungs = append(cell.Rungs, rung)
			}
			cell.Fits.Messages = fitCell(cell.Rungs, cfg.Seeds, func(p Point) float64 { return float64(p.Messages) })
			cell.Fits.Bits = fitCell(cell.Rungs, cfg.Seeds, func(p Point) float64 { return float64(p.Bits) })
			rep.Cells = append(rep.Cells, cell)
		}
	}
	rep.Separations = separations(rep.Cells, cfg)
	return rep, nil
}

// fitCell computes a cell's fit for one metric: the pooled log-log
// regression over every usable point, plus the per-seed slopes (one fit
// across rungs at each trial index) with their 95% confidence interval.
// Points that errored or measured a nonpositive value are excluded; a
// degenerate cell records the fit error instead of failing the sweep.
func fitCell(rungs []Rung, seeds int, metric func(Point) float64) Fit {
	var fit Fit
	var xs, ys []float64
	for _, r := range rungs {
		for _, p := range r.Points {
			if v := metric(p); p.Error == "" && p.M > 0 && v > 0 {
				xs = append(xs, float64(p.M))
				ys = append(ys, v)
			}
		}
	}
	slope, intercept, r2, err := FitLogLog(xs, ys)
	if err != nil {
		fit.Error = err.Error()
		return fit
	}
	fit.Slope, fit.Intercept, fit.R2 = slope, intercept, r2

	for t := 0; t < seeds; t++ {
		var sx, sy []float64
		for _, r := range rungs {
			if t >= len(r.Points) {
				continue
			}
			p := r.Points[t]
			if v := metric(p); p.Error == "" && p.M > 0 && v > 0 {
				sx = append(sx, float64(p.M))
				sy = append(sy, v)
			}
		}
		s, _, _, err := FitLogLog(sx, sy)
		if err != nil {
			fit.Error = fmt.Sprintf("seed %d: %v", t, err)
			return fit
		}
		fit.PerSeed = append(fit.PerSeed, round6(s))
	}
	mean, lo, hi, err := MeanCI95(fit.PerSeed)
	if err == nil {
		fit.SeedMean, fit.CILo, fit.CIHi = round6(mean), round6(lo), round6(hi)
	}
	fit.Slope, fit.Intercept, fit.R2 = round6(fit.Slope), round6(fit.Intercept), round6(fit.R2)
	return fit
}

// separations runs the one-sided Welch test for every (KKT algo ×
// baseline) pair sharing a family, on the per-seed message slopes. A pair
// separates when the baseline's fitted exponent exceeds the KKT
// algorithm's at the 95% level — the empirical o(m) witness.
func separations(cells []Cell, cfg Config) []Separation {
	byKey := make(map[string]*Cell)
	for i := range cells {
		byKey[cells[i].Family+"/"+cells[i].Algo] = &cells[i]
	}
	var seps []Separation
	for _, family := range cfg.Families {
		for _, kkt := range cfg.Algos {
			if IsBaseline(kkt) {
				continue
			}
			for _, base := range cfg.Algos {
				if !IsBaseline(base) {
					continue
				}
				k, b := byKey[family+"/"+kkt], byKey[family+"/"+base]
				if k == nil || b == nil || k.Fits.Messages.Error != "" || b.Fits.Messages.Error != "" {
					continue
				}
				t, df, err := WelchOneSided(b.Fits.Messages.PerSeed, k.Fits.Messages.PerSeed)
				if err != nil {
					continue
				}
				wt := t
				if math.IsInf(wt, 0) {
					// Zero variance on both sides: the gap is exact. Clamp
					// so the report stays valid JSON.
					wt = math.Copysign(1e12, wt)
				}
				seps = append(seps, Separation{
					Family:    family,
					Metric:    "messages",
					KKT:       kkt,
					Baseline:  base,
					Gap:       round6(b.Fits.Messages.SeedMean - k.Fits.Messages.SeedMean),
					WelchT:    round6(wt),
					DF:        round6(df),
					Separated: Separated(t, df),
				})
			}
		}
	}
	return seps
}

// rungSpec builds the harness scenario of one ladder rung. Repair
// algorithms run a fixed fault script, so their cost-vs-m curve isolates
// the per-topology repair cost rather than a growing workload.
func rungSpec(family, algo string, n int, density string) harness.Spec {
	s := harness.Spec{
		Name:   fmt.Sprintf("scaling/%s/%s/n%d", family, algo, n),
		Family: family,
		N:      n,
		Sched:  harness.SchedSync,
		Algo:   algo,
	}
	if family == harness.FamilyGNM {
		s.M = gnmM(n, density)
	}
	switch algo {
	case harness.AlgoMSTRepair:
		s.Faults = harness.FaultScript{Deletes: 12, Inserts: 6, WeightChanges: 6}
	case harness.AlgoSTRepair:
		s.Faults = harness.FaultScript{Deletes: 12, Inserts: 6}
	}
	return s
}

// gnmM maps a rung size to its gnm edge count under the density law,
// floored at 3n (comfortably connected) and capped at the simple-graph
// maximum.
func gnmM(n int, density string) int {
	var m int
	switch density {
	case DensityConst:
		m = 3 * n
	case DensitySqrt:
		m = n * isqrt(n)
	default: // DensityQuad
		m = n * n / 8
	}
	if m < 3*n {
		m = 3 * n
	}
	if max := n * (n - 1) / 2; m > max {
		m = max
	}
	return m
}

// powerOfTwoLadder rounds every rung to the nearest power of two (ties
// go up) and deduplicates, preserving ascending order.
func powerOfTwoLadder(ladder []int) []int {
	out := make([]int, 0, len(ladder))
	for _, n := range ladder {
		lo := 1
		for lo*2 <= n {
			lo *= 2
		}
		hi := lo * 2
		p := lo
		if hi-n <= n-lo {
			p = hi
		}
		if len(out) == 0 || out[len(out)-1] != p {
			out = append(out, p)
		}
	}
	return out
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func dedupeSorted(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	j := 0
	for i, v := range out {
		if i == 0 || v != out[j-1] {
			out[j] = v
			j++
		}
	}
	return out[:j]
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// round6 rounds to 6 decimal places so report floats marshal compactly
// and deterministically across platforms.
func round6(v float64) float64 {
	if v != v || v > 1e300 || v < -1e300 {
		return v
	}
	const s = 1e6
	if v < 0 {
		return float64(int64(v*s-0.5)) / s
	}
	return float64(int64(v*s+0.5)) / s
}
