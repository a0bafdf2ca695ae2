// Package experiments regenerates every table and figure of the SleepScale
// paper's evaluation. Each FigureN/TableN function returns structured series
// plus human-readable tables; cmd/experiments renders them and the package's
// tests assert the reproduction criteria listed in DESIGN.md §5 (shape and
// ordering, not absolute watts — our substrate is a simulator, not the
// authors' testbed).
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/queue"
	"sleepscale/internal/workload"
)

// Config tunes experiment fidelity. DefaultConfig matches the paper's
// methodology; QuickConfig trades resolution for speed (tests, benches).
type Config struct {
	// Profile is the power model (Xeon by default).
	Profile *power.Profile
	// Seed drives all randomness; experiments are deterministic in it.
	Seed int64
	// EvalJobs is N, the jobs per policy simulation (paper: 10,000).
	EvalJobs int
	// FreqStep is the DVFS sweep step (paper: 0.01).
	FreqStep float64
	// MarkStep is the spacing of reported points along frequency sweeps
	// (the paper's hash marks are 0.05 apart).
	MarkStep float64
	// TraceDays is how many synthetic trace days to generate.
	TraceDays int
	// TraceWindow is the evaluated portion of each day in minutes
	// [start, end); the paper uses 2 AM–8 PM = [120, 1200).
	TraceWindowStart int
	TraceWindowEnd   int
	// RunnerEvalJobs is N for in-loop policy selection during trace runs.
	RunnerEvalJobs int
	// RunnerFreqStep is the frequency grid inside trace runs (a real
	// system has ~10 frequencies; coarser than the §4 sweeps).
	RunnerFreqStep float64
}

// DefaultConfig returns paper-fidelity settings.
func DefaultConfig() Config {
	return Config{
		Profile:          power.Xeon(),
		Seed:             1,
		EvalJobs:         10000,
		FreqStep:         0.01,
		MarkStep:         0.05,
		TraceDays:        1,
		TraceWindowStart: 120,
		TraceWindowEnd:   1200,
		RunnerEvalJobs:   1500,
		RunnerFreqStep:   0.02,
	}
}

// QuickConfig returns reduced-resolution settings for tests and benches.
func QuickConfig() Config {
	return Config{
		Profile:          power.Xeon(),
		Seed:             1,
		EvalJobs:         4000,
		FreqStep:         0.02,
		MarkStep:         0.05,
		TraceDays:        1,
		TraceWindowStart: 120,
		TraceWindowEnd:   420, // 2 AM–7 AM: five hours
		RunnerEvalJobs:   600,
		RunnerFreqStep:   0.05,
	}
}

func (c Config) profile() *power.Profile {
	if c.Profile != nil {
		return c.Profile
	}
	return power.Xeon()
}

// Table is a rendered result: a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned plain text.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Point is one sample along a frequency sweep.
type Point struct {
	// Frequency is the DVFS factor f.
	Frequency float64
	// NormMeanResponse is µ·E[R] (normalized by the f = 1 service time).
	NormMeanResponse float64
	// Power is E[P] in watts.
	Power float64
}

// Curve is one labeled series of sweep points.
type Curve struct {
	// Label names the policy family, e.g. "C6S3".
	Label string
	// Points are ordered by descending frequency (left end of the paper's
	// plots is f = 1).
	Points []Point
}

// MinPower returns the point with the lowest power (the bowl bottom) and
// true, or false for an empty curve.
func (c Curve) MinPower() (Point, bool) {
	if len(c.Points) == 0 {
		return Point{}, false
	}
	best := c.Points[0]
	for _, p := range c.Points[1:] {
		if p.Power < best.Power {
			best = p
		}
	}
	return best, true
}

// MinPowerWithin returns the minimum-power point whose normalized mean
// response does not exceed budget.
func (c Curve) MinPowerWithin(budget float64) (Point, bool) {
	found := false
	var best Point
	for _, p := range c.Points {
		if p.NormMeanResponse > budget {
			continue
		}
		if !found || p.Power < best.Power {
			best, found = p, true
		}
	}
	return best, found
}

// crnJobs generates the common-random-numbers evaluation stream for a
// workload at the given utilization: one job set shared by every policy
// (arrivals fixed, sizes at f = 1), the §4.1 methodology.
func crnJobs(cfg Config, spec workload.Spec, rho float64) ([]queue.Job, error) {
	st, err := workload.NewIdealizedStats(spec)
	if err != nil {
		return nil, err
	}
	st, err = st.AtUtilization(rho)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return st.Jobs(cfg.EvalJobs, rng), nil
}

// sweep evaluates one plan across the frequency grid over the given jobs,
// returning a curve ordered from f = 1 downwards. mu is the workload's
// maximum service rate (for normalization), beta its frequency exponent.
func sweep(cfg Config, jobs []queue.Job, plan planSpec, mu, rho, beta float64) (Curve, error) {
	freqs := policy.Space{FreqStep: cfg.FreqStep}.Frequencies(rho, beta)
	curve := Curve{Label: plan.label}
	// Walk from high to low frequency to mirror the paper's plots.
	for i := len(freqs) - 1; i >= 0; i-- {
		f := freqs[i]
		qcfg, err := plan.config(cfg.profile(), f, beta)
		if err != nil {
			return Curve{}, err
		}
		res, err := queue.Simulate(jobs, qcfg)
		if err != nil {
			return Curve{}, err
		}
		curve.Points = append(curve.Points, Point{
			Frequency:        f,
			NormMeanResponse: mu * res.MeanResponse,
			Power:            res.AvgPower,
		})
	}
	return curve, nil
}
