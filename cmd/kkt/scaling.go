package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"kkt/internal/harness"
	"kkt/internal/scaling"
)

// scalingAlgoNames maps the CLI's short algorithm names to the harness
// constants, matching the vocabulary of `kkt list` scenario names.
var scalingAlgoNames = map[string]string{
	"mst":        harness.AlgoMSTBuildAdaptive,
	"st":         harness.AlgoSTBuild,
	"mst-repair": harness.AlgoMSTRepair,
	"st-repair":  harness.AlgoSTRepair,
	"ghs":        harness.AlgoGHS,
	"flood":      harness.AlgoFlood,
}

func scalingAlgoVocab() []string {
	out := make([]string, 0, len(scalingAlgoNames))
	for k := range scalingAlgoNames {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func cmdScaling(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("kkt scaling", stderr)
	families := fs.String("families", "gnm", "comma-separated graph families: "+strings.Join(scaling.Families, ", "))
	algos := fs.String("algos", "mst,ghs,flood", "comma-separated algorithms: "+strings.Join(scalingAlgoVocab(), ", "))
	ladderFlag := fs.String("ladder", "256:4096:5", "size ladder: lo:hi:rungs (geometric steps) or a comma list of n values; k suffix = ×1024")
	seeds := fs.Int("seeds", 3, "seeded trials per rung (per-seed slopes feed the confidence intervals)")
	seed := fs.Uint64("seed", 1, "base seed (identical seeds give byte-identical reports)")
	density := fs.String("density", scaling.DensityQuad, "gnm density law: "+strings.Join(scaling.Densities, ", ")+" (quad grows m = n²/8 so o(m) is visible)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget per trial (0 = none)")
	jsonOut := fs.Bool("json", false, "emit JSON instead of a table")
	out := fs.String("out", "SCALING_sweep.json", "report file path")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "kkt: scaling takes no positional arguments (got %q)\n", fs.Arg(0))
		return usageError{fmt.Errorf("scaling takes no positional arguments")}
	}
	if *seeds < 1 {
		return flagValueError(stderr, "--seeds must be at least 1, got %d", *seeds)
	}
	if err := validatePool(stderr, *workers, *timeout); err != nil {
		return err
	}

	cfg := scaling.Config{
		Seeds:   *seeds,
		Seed:    *seed,
		Density: *density,
		Workers: *workers,
		Timeout: *timeout,
	}
	var err error
	if cfg.Families, err = splitVocab(stderr, "family", *families, scaling.Families, nil); err != nil {
		return err
	}
	if cfg.Algos, err = splitVocab(stderr, "algorithm", *algos, scalingAlgoVocab(), scalingAlgoNames); err != nil {
		return err
	}
	if !containsString(scaling.Densities, *density) {
		fmt.Fprintf(stderr, "kkt: unknown density %q\n", *density)
		printSuggestions(stderr, harness.SuggestNames(scaling.Densities, *density))
		return usageError{fmt.Errorf("unknown density")}
	}
	if cfg.Ladder, err = parseLadder(*ladderFlag); err != nil {
		fmt.Fprintf(stderr, "kkt: %v\n", err)
		return usageError{err}
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "kkt: %v\n", err)
		return usageError{err}
	}

	total := cfg.TotalTrials()
	var done atomic.Int64
	if !*quiet {
		cfg.OnTrialDone = func(spec harness.Spec, trial int) {
			fmt.Fprintf(stderr, "\r[%d/%d] %-40s", done.Add(1), total, spec.Name)
		}
	}
	rep, err := scaling.Run(cfg)
	if !*quiet {
		fmt.Fprintln(stderr)
	}
	if err != nil {
		return err
	}

	blob, err := rep.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	if *jsonOut {
		if _, err := stdout.Write(blob); err != nil {
			return err
		}
	} else {
		if err := rep.WriteTable(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nreport written to %s\n", *out)
	}
	return reportSweepErrors(stderr, rep)
}

// splitVocab parses a comma-separated flag against a closed vocabulary,
// preserving order and dropping duplicates. Unknown words are usage
// errors (exit 2) with "did you mean" candidates, like mistyped scenario
// names. A non-nil rename maps accepted words to their harness names.
func splitVocab(stderr io.Writer, what, flagVal string, vocab []string, rename map[string]string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	for _, w := range strings.Split(flagVal, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		if !containsString(vocab, w) {
			fmt.Fprintf(stderr, "kkt: unknown %s %q\n", what, w)
			printSuggestions(stderr, harness.SuggestNames(vocab, w))
			return nil, usageError{fmt.Errorf("unknown %s", what)}
		}
		if rename != nil {
			w = rename[w]
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(stderr, "kkt: no %s given\n", what)
		return nil, usageError{fmt.Errorf("no %s given", what)}
	}
	return out, nil
}

// maxLadderRungs bounds the rung count of a lo:hi:rungs ladder, so a
// mistyped count cannot allocate without limit.
const maxLadderRungs = 64

// parseLadder parses the --ladder flag: either "lo:hi:rungs" (a geometric
// ladder from lo to hi in the given number of rungs, which must come out
// strictly increasing) or an explicit comma list of sizes. Sizes take a k
// suffix meaning ×1024.
func parseLadder(s string) ([]int, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("malformed ladder %q: want lo:hi:rungs, e.g. 256:4096:5", s)
		}
		lo, err := parseSize(parts[0])
		if err != nil {
			return nil, fmt.Errorf("malformed ladder %q: %v", s, err)
		}
		hi, err := parseSize(parts[1])
		if err != nil {
			return nil, fmt.Errorf("malformed ladder %q: %v", s, err)
		}
		rungs, err := strconv.Atoi(parts[2])
		if err != nil || rungs < 2 || rungs > maxLadderRungs {
			return nil, fmt.Errorf("malformed ladder %q: rung count %q, want an integer >= 2 and <= %d", s, parts[2], maxLadderRungs)
		}
		if lo >= hi {
			return nil, fmt.Errorf("malformed ladder %q: lo %d not below hi %d", s, lo, hi)
		}
		ratio := float64(hi) / float64(lo)
		out := make([]int, rungs)
		for i := range out {
			frac := float64(i) / float64(rungs-1)
			out[i] = int(float64(lo)*math.Pow(ratio, frac) + 0.5)
		}
		out[0], out[rungs-1] = lo, hi
		for i := 1; i < rungs; i++ {
			if out[i] <= out[i-1] {
				return nil, fmt.Errorf("malformed ladder %q: %d rungs between %d and %d are not strictly increasing", s, rungs, lo, hi)
			}
		}
		return out, nil
	}
	var out []int
	for _, w := range strings.Split(s, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		n, err := parseSize(w)
		if err != nil {
			return nil, fmt.Errorf("malformed ladder %q: %v", s, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("malformed ladder %q: no sizes", s)
	}
	return out, nil
}

// parseSize parses one ladder size, accepting a k suffix (×1024).
func parseSize(s string) (int, error) {
	mult := 1
	if strings.HasSuffix(s, "k") || strings.HasSuffix(s, "K") {
		mult = 1024
		s = s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("size %q, want a positive integer (k suffix = ×1024)", s)
	}
	if n > math.MaxInt/mult {
		return 0, fmt.Errorf("size %q×%d overflows int", s, mult)
	}
	return n * mult, nil
}

// reportSweepErrors surfaces errored trial points on stderr and returns
// an error if any point failed, so CI catches sweep regressions.
func reportSweepErrors(stderr io.Writer, rep *scaling.Report) error {
	failed := 0
	for _, c := range rep.Cells {
		for _, r := range c.Rungs {
			for _, p := range r.Points {
				if p.Error != "" {
					failed++
					fmt.Fprintf(stderr, "kkt: scaling/%s/%s n=%d (seed %d): %s\n", c.Family, c.Algo, r.N, p.Seed, p.Error)
				}
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d sweep trial(s) failed", failed)
	}
	return nil
}

func containsString(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
