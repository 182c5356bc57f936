package scaling

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"kkt/internal/harness"
)

// TestScalingSeparation is the empirical o(m) gate: on a density-growing
// gnm ladder (m = n²/8), the fitted messages-vs-m exponent of the KKT
// build must sit measurably below GHS's at the 95% level. On this ladder
// the repo's KKT build fits ≈ m^0.63 while GHS fits ≈ m^0.95 — the
// separation the paper's o(m) claim predicts. A constant-density ladder
// could not witness it (both costs would be Θ(n) = Θ(m)); see the
// Density doc comment.
func TestScalingSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("full separation ladder is seconds of simulation")
	}
	rep, err := Run(Config{
		Families: []string{harness.FamilyGNM},
		Algos:    []string{harness.AlgoMSTBuildAdaptive, harness.AlgoGHS},
		Ladder:   []int{64, 128, 256, 512, 1024},
		Seeds:    3,
		Seed:     1,
		Density:  DensityQuad,
	})
	if err != nil {
		t.Fatal(err)
	}

	fits := map[string]Fit{}
	for _, c := range rep.Cells {
		for _, rung := range c.Rungs {
			for _, p := range rung.Points {
				if p.Error != "" || !p.Valid {
					t.Fatalf("%s/%s n=%d seed=%d: invalid trial (err=%q)", c.Family, c.Algo, rung.N, p.Seed, p.Error)
				}
			}
		}
		if c.Fits.Messages.Error != "" {
			t.Fatalf("%s/%s: fit error: %s", c.Family, c.Algo, c.Fits.Messages.Error)
		}
		fits[c.Algo] = c.Fits.Messages
	}

	kkt, ghs := fits[harness.AlgoMSTBuildAdaptive], fits[harness.AlgoGHS]
	if kkt.Slope >= 0.85 {
		t.Errorf("kkt messages-vs-m slope %.3f, want sublinear (< 0.85) on the quad ladder", kkt.Slope)
	}
	if ghs.Slope <= 0.85 {
		t.Errorf("ghs messages-vs-m slope %.3f, want near-linear (> 0.85) on the quad ladder", ghs.Slope)
	}
	if kkt.CIHi >= ghs.CILo {
		t.Errorf("confidence intervals overlap: kkt [%.3f, %.3f] vs ghs [%.3f, %.3f]",
			kkt.CILo, kkt.CIHi, ghs.CILo, ghs.CIHi)
	}

	if len(rep.Separations) != 1 {
		t.Fatalf("got %d separations, want 1", len(rep.Separations))
	}
	sep := rep.Separations[0]
	if sep.KKT != harness.AlgoMSTBuildAdaptive || sep.Baseline != harness.AlgoGHS {
		t.Fatalf("separation pair %s vs %s, want mst-build vs ghs", sep.KKT, sep.Baseline)
	}
	if !sep.Separated {
		t.Errorf("Welch test did not separate: gap=%.3f t=%.2f df=%.1f", sep.Gap, sep.WelchT, sep.DF)
	}
	if sep.Gap <= 0 {
		t.Errorf("slope gap %.3f, want positive (ghs above kkt)", sep.Gap)
	}
}

// TestRunDeterministic pins the byte-identity contract: the same config
// produces the same marshaled report at any worker count.
func TestRunDeterministic(t *testing.T) {
	cfg := Config{
		Families: []string{harness.FamilyGNM, harness.FamilyHypercube},
		Algos:    []string{harness.AlgoFlood},
		Ladder:   []int{32, 64, 128},
		Seeds:    2,
		Seed:     7,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := a.MarshalIndent()
	bb, _ := b.MarshalIndent()
	if !bytes.Equal(ab, bb) {
		t.Fatalf("reports diverge across worker counts:\n%s\n---\n%s", ab, bb)
	}
	// Flood visits every edge twice: the fitted slope is exactly 1 and
	// every seed agrees, so the interval collapses to a point.
	for _, c := range a.Cells {
		f := c.Fits.Messages
		if f.Error != "" || f.Slope < 0.999 || f.Slope > 1.001 {
			t.Errorf("%s/flood: slope=%v err=%q, want exactly linear", c.Family, f.Slope, f.Error)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	base := Config{Ladder: []int{64, 128}}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"unknown family", func(c *Config) { c.Families = []string{"smallworld"} }, "unknown family"},
		{"unknown algo", func(c *Config) { c.Algos = []string{"prim"} }, "unknown algorithm"},
		{"unknown density", func(c *Config) { c.Density = "cubic" }, "unknown density"},
		{"single rung", func(c *Config) { c.Ladder = []int{512} }, "want >= 2"},
		{"duplicate-only rungs", func(c *Config) { c.Ladder = []int{512, 512} }, "want >= 2"},
		{"tiny rung", func(c *Config) { c.Ladder = []int{4, 64} }, "too small"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestGnmDensityLaws(t *testing.T) {
	// quad: n²/8, floored at 3n, capped at the simple-graph max.
	if got := gnmM(64, DensityQuad); got != 512 {
		t.Errorf("quad(64) = %d, want 512", got)
	}
	if got := gnmM(8, DensityQuad); got != 24 { // n²/8 = 8 < 3n = 24
		t.Errorf("quad(8) = %d, want floor 3n = 24", got)
	}
	if got := gnmM(10, DensityQuad); got != 30 { // n²/8 = 12, floored to 3n = 30, under the cap 45
		t.Errorf("quad(10) = %d, want 30", got)
	}
	if got := gnmM(8, DensityConst); got != 24 { // 3n = 24 < max 28
		t.Errorf("const(8) = %d, want 24", got)
	}
	if got := gnmM(1024, DensityConst); got != 3072 {
		t.Errorf("const(1024) = %d, want 3072", got)
	}
	if got := gnmM(256, DensitySqrt); got != 4096 {
		t.Errorf("sqrt(256) = %d, want 256·16", got)
	}
}

func TestPowerOfTwoLadder(t *testing.T) {
	got := powerOfTwoLadder([]int{60, 64, 100, 257, 1000})
	want := []int{64, 128, 256, 1024}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("powerOfTwoLadder = %v, want %v", got, want)
	}
	// A ladder collapsing below two rungs errors at Run.
	_, err := Run(Config{
		Families: []string{harness.FamilyHypercube},
		Algos:    []string{harness.AlgoFlood},
		Ladder:   []int{60, 64},
		Seeds:    1,
	})
	if err == nil || !strings.Contains(err.Error(), "collapses") {
		t.Errorf("collapsed hypercube ladder: err=%v", err)
	}
}
