// Command sweep characterizes the power/response trade-off of one or more
// sleep states for a workload at a fixed utilization, sweeping the DVFS
// frequency — the §4 methodology behind Figures 1–5. Output is a TSV of
// (state, f, µE[R], E[P]) rows suitable for plotting, and -col-out appends
// the same rows to a columnar result file cmd/colq can aggregate:
//
//	sweep -workload DNS -rho 0.1 -states "C0(i)S0(i),C6S0(i),C6S3" \
//	      -jobs 10000 -step 0.01 -beta 1 -profile xeon -col-out sweep.col
//	colq -f sweep.col -op min -col avg_power -group-by state
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"

	"sleepscale"
	"sleepscale/internal/colstore"
)

type sweepOptions struct {
	workload string
	rho      float64
	states   string
	jobs     int
	step     float64
	beta     float64
	profile  string
	seed     int64
	colOut   string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var o sweepOptions
	flag.StringVar(&o.workload, "workload", "DNS", "workload: DNS, Mail or Google")
	flag.Float64Var(&o.rho, "rho", 0.1, "utilization ρ = λ/µ")
	flag.StringVar(&o.states, "states", "C0(i)S0(i),C6S0(i),C6S3", "comma-separated state names")
	flag.IntVar(&o.jobs, "jobs", 10000, "jobs per policy evaluation")
	flag.Float64Var(&o.step, "step", 0.01, "frequency sweep step")
	flag.Float64Var(&o.beta, "beta", 1, "service-rate frequency exponent β")
	flag.StringVar(&o.profile, "profile", "xeon", "power profile: xeon or atom")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.StringVar(&o.colOut, "col-out", "", "append (state, f, µE[R], E[P]) rows to this column file (query with colq)")
	flag.Parse()

	if err := runSweep(o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// sweepSchema is the columnar layout of -col-out result files.
func sweepSchema() colstore.Schema {
	return colstore.Schema{
		Kind: colstore.KindSweep,
		Cols: []string{"state", "f", "norm_mean_response", "avg_power"},
	}
}

// runSweep evaluates every (state, frequency) policy point, streaming TSV
// rows to out and, when configured, appending them to the columnar sink.
func runSweep(o sweepOptions, out io.Writer) error {
	spec, err := specByName(o.workload)
	if err != nil {
		return err
	}
	prof, err := profileByName(o.profile)
	if err != nil {
		return err
	}
	stats, err := sleepscale.NewIdealizedStats(spec)
	if err != nil {
		return err
	}
	stats, err = stats.AtUtilization(o.rho)
	if err != nil {
		return err
	}
	stream := stats.Jobs(o.jobs, rand.New(rand.NewSource(o.seed)))
	mu := spec.MaxServiceRate()

	var sink *colstore.FileWriter
	if o.colOut != "" {
		sink, err = colstore.Append(o.colOut, sweepSchema())
		if err != nil {
			return err
		}
		defer func() {
			if sink != nil {
				sink.Close()
			}
		}()
	}

	fmt.Fprintf(out, "# workload=%s rho=%.3f beta=%.2f profile=%s jobs=%d\n",
		spec.Name, o.rho, o.beta, prof.Name, o.jobs)
	fmt.Fprintln(out, "state\tf\tnorm_mean_response\tavg_power_w")
	row := make([]float64, 4)
	for _, name := range strings.Split(o.states, ",") {
		st, err := stateByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		space := sleepscale.PolicySpace{
			Plans:    []sleepscale.SleepPlan{sleepscale.SingleState(st)},
			FreqStep: o.step,
			MinFreq:  0.05,
		}
		for _, f := range space.Frequencies(o.rho, o.beta) {
			pol := sleepscale.Policy{Frequency: f, Plan: space.Plans[0]}
			cfg, err := pol.Config(prof, o.beta)
			if err != nil {
				return err
			}
			res, err := sleepscale.Simulate(stream, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s\t%.3f\t%.4f\t%.3f\n",
				st, f, mu*res.MeanResponse, res.AvgPower)
			if sink != nil {
				row[0] = sink.DictID(st.String())
				row[1] = f
				row[2] = mu * res.MeanResponse
				row[3] = res.AvgPower
				if err := sink.Append(row); err != nil {
					return err
				}
			}
		}
	}
	if sink != nil {
		err := sink.Close()
		sink = nil
		return err
	}
	return nil
}

func specByName(name string) (sleepscale.Spec, error) {
	switch strings.ToLower(name) {
	case "dns":
		return sleepscale.DNS(), nil
	case "mail":
		return sleepscale.Mail(), nil
	case "google":
		return sleepscale.Google(), nil
	}
	return sleepscale.Spec{}, fmt.Errorf("unknown workload %q", name)
}

func profileByName(name string) (*sleepscale.Profile, error) {
	switch strings.ToLower(name) {
	case "xeon":
		return sleepscale.Xeon(), nil
	case "atom":
		return sleepscale.Atom(), nil
	}
	return nil, fmt.Errorf("unknown profile %q", name)
}

func stateByName(name string) (sleepscale.State, error) {
	for _, s := range sleepscale.LowPowerStates() {
		if s.String() == name {
			return s, nil
		}
	}
	return sleepscale.State{}, fmt.Errorf("unknown state %q (want one of %v)",
		name, sleepscale.LowPowerStates())
}
