package scaling

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// ReportSchema identifies the scaling report format; bump on incompatible
// changes so downstream tooling can dispatch.
const ReportSchema = "kkt/scaling/v1"

// Report is the top-level sweep artifact (the SCALING_*.json payload). It
// contains only seed-determined data: identical configs marshal to
// byte-identical reports regardless of worker count or wall time.
type Report struct {
	Schema  string `json:"schema"`
	Seed    uint64 `json:"seed"`
	Seeds   int    `json:"seeds"`
	Density string `json:"density"`
	Ladder  []int  `json:"ladder"`
	// Cells hold one (family × algo) sweep each, families outer.
	Cells []Cell `json:"cells"`
	// Separations are the one-sided Welch tests of every (KKT algo ×
	// baseline) pair sharing a family, on the per-seed message slopes.
	Separations []Separation `json:"separations,omitempty"`
}

// Cell is one (family × algo) sweep: the measured ladder and its fits.
type Cell struct {
	Family string `json:"family"`
	Algo   string `json:"algo"`
	Rungs  []Rung `json:"rungs"`
	Fits   Fits   `json:"fits"`
}

// Rung is one ladder size with its per-seed measurements.
type Rung struct {
	N      int     `json:"n"`
	Points []Point `json:"points"`
}

// Point is one seeded trial's measurement: the generated edge count m
// (the fit's x axis) and the protocol costs.
type Point struct {
	Seed     uint64 `json:"seed"`
	M        int    `json:"m"`
	Messages uint64 `json:"messages"`
	Bits     uint64 `json:"bits"`
	Time     int64  `json:"time"`
	Valid    bool   `json:"valid"`
	Error    string `json:"error,omitempty"`
}

// Fits pairs the cell's two fitted metrics.
type Fits struct {
	Messages Fit `json:"messages"`
	Bits     Fit `json:"bits"`
}

// Fit is one log-log regression: the pooled fit over every point, plus
// the per-seed slopes (one regression across rungs per trial index) with
// their 95% Student-t confidence interval. A degenerate cell records
// Error and zeroes the rest.
type Fit struct {
	Slope     float64   `json:"slope"`
	Intercept float64   `json:"intercept"`
	R2        float64   `json:"r2"`
	PerSeed   []float64 `json:"per_seed,omitempty"`
	SeedMean  float64   `json:"seed_mean"`
	CILo      float64   `json:"ci_lo"`
	CIHi      float64   `json:"ci_hi"`
	Error     string    `json:"error,omitempty"`
}

// Separation is one Welch test verdict: does the baseline's fitted
// message exponent exceed the KKT algorithm's on this family? WelchT is
// clamped to ±1e12 when the statistic degenerates to ±Inf (zero variance
// on both sides), keeping the report valid JSON.
type Separation struct {
	Family    string  `json:"family"`
	Metric    string  `json:"metric"`
	KKT       string  `json:"kkt"`
	Baseline  string  `json:"baseline"`
	Gap       float64 `json:"gap"`
	WelchT    float64 `json:"welch_t"`
	DF        float64 `json:"df"`
	Separated bool    `json:"separated"`
}

// MarshalIndent renders the canonical JSON form (two-space indent,
// trailing newline), matching the bench report convention.
func (r Report) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteTable renders the human-readable sweep summary: one row per cell
// with the fitted exponents, then the separation verdicts.
func (r Report) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "FAMILY\tALGO\tPOINTS\tMSG-SLOPE\tMSG-CI95\tMSG-R2\tBITS-SLOPE")
	for _, c := range r.Cells {
		points := 0
		for _, rung := range c.Rungs {
			points += len(rung.Points)
		}
		mf := c.Fits.Messages
		if mf.Error != "" {
			fmt.Fprintf(tw, "%s\t%s\t%d\tfit error: %s\t\t\t\n", c.Family, c.Algo, points, mf.Error)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t[%.3f, %.3f]\t%.3f\t%.3f\n",
			c.Family, c.Algo, points,
			mf.Slope, mf.CILo, mf.CIHi, mf.R2, c.Fits.Bits.Slope)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(r.Separations) == 0 {
		return nil
	}
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "FAMILY\tKKT\tBASELINE\tSLOPE-GAP\tWELCH-T\tDF\tSEPARATED")
	for _, s := range r.Separations {
		verdict := "no"
		if s.Separated {
			verdict = "yes"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.3f\t%.2f\t%.1f\t%s\n",
			s.Family, s.KKT, s.Baseline, s.Gap, s.WelchT, s.DF, verdict)
	}
	return tw.Flush()
}
