// Command farmsim drives the two §7 future-work extensions: a farm of
// single-core servers behind a dispatcher, or one multi-core chip with a
// shared platform. It sweeps the machine count and reports the
// power/response scale-out curve.
//
// Usage:
//
//	farmsim -mode farm -sizes 1,2,4,8 -dispatch jsq -lambda 4 -mu 5
//	farmsim -mode farm -stream -parallel -sizes 4,16 -dispatch pd2
//	farmsim -mode chip -sizes 1,2,4 -lambda 14 -mu 5
//
// With -stream the farm mode never materializes the job stream: jobs are
// pulled from a stationary source in bounded chunks through the streaming
// dispatch loop (the state-dependent dispatchers included), and -parallel
// adds the time-sliced parallel simulation on the persistent worker pool —
// bit-identical to the sequential dispatch. In that mode jsq and lwl route
// through an O(log k) index over the availability shadow. Dispatchers: jsq,
// rr, random, pd<d> (power-of-d choices) and lwl (least work left,
// wake-aware).
//
// With -trace the farm instead runs the epoch-policy loop over a
// utilization trace (synthetic name, CSV or columnar path) — the fleet
// coordinator in shared mode, one decision per epoch applied fleet-wide —
// and -epochs-out appends each size's per-epoch records to a column file for
// cmd/colq:
//
//	farmsim -trace email-store -sizes 2,4 -epochs-out epochs.col
//
// Adding -coordinate switches the coordinator to coordinated mode:
// per-server predictors and policy decisions, an optional -quorum staggered
// sleep rotation (that many active servers always no deeper than C1), and
// -park horizontal scaling (surplus servers drained, deep-slept and removed
// from routing). -epochs-out then appends the fleet epoch-log schema —
// per-epoch records zipped with active/parked/shallow/unparked rollups:
//
//	farmsim -trace email-store -sizes 8 -coordinate -quorum 2 -park
//
// Fault injection rides on the coordinator: -faults replays a scripted
// crash/repair schedule ("<time> <server> crash|repair" per line) while
// -mtbf/-mttr draws seeded per-server outages; lost in-flight jobs are
// re-dispatched under -retry-budget/-retry-backoff and the applied events
// tee to a column file with -faults-out:
//
//	farmsim -trace email-store -sizes 8 -coordinate -park \
//	    -mtbf 14400 -mttr 600 -faults-out faults.col
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"sleepscale"
	"sleepscale/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("farmsim: ")
	var (
		mode       = flag.String("mode", "farm", "farm (dispatched servers) or chip (shared platform)")
		sizesArg   = flag.String("sizes", "1,2,4", "comma-separated machine/core counts")
		dispatch   = flag.String("dispatch", "jsq", "farm dispatcher: jsq, rr, random, pd<d> (power-of-d choices, e.g. pd2) or lwl (least work left)")
		lambda     = flag.Float64("lambda", 4, "aggregate arrival rate (jobs/s)")
		mu         = flag.Float64("mu", 5, "per-server (or per-core) max service rate (jobs/s)")
		jobs       = flag.Int("jobs", 50000, "jobs to simulate")
		seed       = flag.Int64("seed", 1, "seed")
		streaming  = flag.Bool("stream", false, "farm mode: pull jobs from a streaming source (O(chunk) memory) instead of materializing")
		parallel   = flag.Bool("parallel", false, "with -stream: time-sliced parallel simulation (bit-identical results)")
		traceArg   = flag.String("trace", "", "run the epoch-policy farm over this utilization trace (email-store, file-server, or a CSV/columnar path) instead of the stationary sweep")
		epochT     = flag.Int("T", 5, "with -trace: trace slots per policy epoch")
		epochsOut  = flag.String("epochs-out", "", "with -trace: append per-epoch records to this column file (query with colq)")
		coordinate = flag.Bool("coordinate", false, "with -trace: per-server predictors and policies instead of one shared decision per epoch")
		quorum     = flag.Int("quorum", 0, "with -coordinate: rotate deep sleep so this many active servers always stay no deeper than C1")
		park       = flag.Bool("park", false, "with -coordinate: park surplus servers (drain, deep-sleep, remove from routing)")
		faultsArg  = flag.String("faults", "", "with -coordinate: inject the crash/repair schedule in this file (\"<time> <server> crash|repair\" per line)")
		mtbf       = flag.Float64("mtbf", 0, "with -coordinate: draw seeded per-server crashes with this mean time between failures (seconds); needs -mttr")
		mttr       = flag.Float64("mttr", 0, "with -coordinate: mean time to repair (seconds) for -mtbf failures")
		retryN     = flag.Int("retry-budget", 3, "with -faults/-mtbf: times a lost job may be re-dispatched before it is dropped")
		retryWait  = flag.Float64("retry-backoff", 0.1, "with -faults/-mtbf: seconds per attempt added to a lost job's re-dispatch instant")
		faultsOut  = flag.String("faults-out", "", "with -faults/-mtbf: append the applied fault events to this column file (query with colq)")
	)
	flag.Parse()

	sizes, err := parseSizes(*sizesArg)
	if err != nil {
		log.Fatal(err)
	}
	if *traceArg != "" {
		fc := fleetFlags{
			coordinate: *coordinate, quorum: *quorum, park: *park,
			faultsFile: *faultsArg, mtbf: *mtbf, mttr: *mttr,
			retry:     sleepscale.FaultRetryPolicy{Budget: *retryN, Backoff: *retryWait},
			faultsOut: *faultsOut,
		}
		if err := runTraceFarm(sizes, *traceArg, *epochT, *dispatch, *seed, *epochsOut, fc); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *coordinate || *quorum != 0 || *park || *faultsArg != "" || *mtbf != 0 || *mttr != 0 || *faultsOut != "" {
		log.Fatal("-coordinate, -quorum, -park, -faults, -mtbf/-mttr and -faults-out need -trace")
	}
	// The materialized job slice only exists outside -stream farm runs —
	// materializing it anyway would do exactly the work the flag avoids.
	var stream []sleepscale.Job
	if *mode != "farm" || !*streaming {
		rng := rand.New(rand.NewSource(*seed))
		stream = make([]sleepscale.Job, *jobs)
		tnow := 0.0
		for i := range stream {
			tnow += rng.ExpFloat64() / *lambda
			stream[i] = sleepscale.Job{Arrival: tnow, Size: rng.ExpFloat64() / *mu}
		}
	}

	fmt.Printf("mode=%s λ=%.2f/s µ=%.2f/s jobs=%d stream=%v\n\n", *mode, *lambda, *mu, *jobs, *streaming)
	fmt.Printf("%6s  %10s  %10s  %12s\n", "k", "E[R] (s)", "P95 (s)", "E[P] (W)")
	for _, k := range sizes {
		switch *mode {
		case "farm":
			pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
			cfg, err := pol.Config(sleepscale.Xeon(), 1)
			if err != nil {
				log.Fatal(err)
			}
			disp, err := buildDispatcher(*dispatch, *seed)
			if err != nil {
				log.Fatal(err)
			}
			var res sleepscale.FarmResult
			if *streaming {
				src, err := buildStream(*lambda, *mu, *jobs, *seed)
				if err != nil {
					log.Fatal(err)
				}
				res, err = sleepscale.RunFarmSource(k, cfg, disp, src,
					sleepscale.FarmDispatchOptions{Parallel: *parallel})
				if err != nil {
					log.Fatal(err)
				}
			} else {
				res, err = sleepscale.RunFarm(k, cfg, disp, stream)
				if err != nil {
					log.Fatal(err)
				}
			}
			var p95 float64
			for _, s := range res.PerServer {
				if s.ResponseP95 > p95 {
					p95 = s.ResponseP95
				}
			}
			fmt.Printf("%6d  %10.4f  %10.4f  %12.2f\n", k, res.MeanResponse, p95, res.TotalAvgPower)
		case "chip":
			cfg := sleepscale.MultiCoreConfig{
				Cores: k, Frequency: 1, FreqExponent: 1,
				CPUActivePower: 130.0 / 4,
				CoreSleep: []sleepscale.MultiCorePhase{
					{Name: "C6", Power: 15.0 / 4, WakeLatency: 1e-3, EnterAfter: 0},
				},
				PlatformActivePower: 120,
				PlatformIdlePower:   60.5,
				PlatformSleepPower:  13.1,
				PlatformSleepAfter:  2,
				PlatformWakeLatency: 1,
			}
			res, err := sleepscale.SimulateMultiCore(stream, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%6d  %10.4f  %10.4f  %12.2f\n", k, res.MeanResponse, res.ResponseP95, res.AvgPower)
		default:
			log.Fatalf("unknown mode %q", *mode)
		}
	}
}

// fleetFlags carries the -coordinate family into the trace runner.
type fleetFlags struct {
	coordinate bool
	quorum     int
	park       bool
	faultsFile string
	mtbf, mttr float64
	retry      sleepscale.FaultRetryPolicy
	faultsOut  string
}

// buildFaults resolves the fault flags into a source for a k-server fleet
// over a trace lasting horizon seconds, or nil when no injection was asked
// for. A scripted -faults file and a seeded -mtbf/-mttr renewal process are
// mutually exclusive.
func (fc fleetFlags) buildFaults(k int, horizon float64, seed int64) (sleepscale.FaultSource, error) {
	script, renewal := fc.faultsFile != "", fc.mtbf != 0 || fc.mttr != 0
	if !script && !renewal {
		return nil, nil
	}
	if !fc.coordinate {
		return nil, fmt.Errorf("-faults and -mtbf/-mttr need -coordinate")
	}
	if script && renewal {
		return nil, fmt.Errorf("-faults and -mtbf/-mttr are mutually exclusive")
	}
	if script {
		text, err := os.ReadFile(fc.faultsFile)
		if err != nil {
			return nil, err
		}
		sched, err := sleepscale.ParseFaultSchedule(string(text))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fc.faultsFile, err)
		}
		return sched, nil
	}
	if fc.mtbf <= 0 || fc.mttr <= 0 {
		return nil, fmt.Errorf("-mtbf and -mttr must both be positive (got %g and %g)", fc.mtbf, fc.mttr)
	}
	return sleepscale.NewFaultRenewal(sleepscale.FaultRenewalConfig{
		Servers: k, MTBF: fc.mtbf, MTTR: fc.mttr, Horizon: horizon,
	}, seed)
}

// runTraceFarm sweeps farm sizes through the fleet coordinator over a
// utilization trace — one shared decision per epoch, or per-server
// decisions with -coordinate — optionally appending every size's per-epoch
// records to one columnar log (runs are distinguished by append order —
// epoch indices restart at 0 per run).
func runTraceFarm(sizes []int, traceName string, epochT int, dispatch string, seed int64, epochsOut string, fc fleetFlags) error {
	if !fc.coordinate && (fc.quorum != 0 || fc.park) {
		return fmt.Errorf("-quorum and -park need -coordinate")
	}
	if !fc.coordinate && (fc.faultsFile != "" || fc.mtbf != 0 || fc.mttr != 0 || fc.faultsOut != "") {
		return fmt.Errorf("-faults, -mtbf/-mttr and -faults-out need -coordinate")
	}
	for _, k := range sizes {
		if fc.quorum > k {
			return fmt.Errorf("quorum %d exceeds fleet size %d: a duty window cannot hold more servers than the fleet (use -quorum ≤ the smallest -sizes entry)", fc.quorum, k)
		}
	}
	tr, err := loadFarmTrace(traceName, seed)
	if err != nil {
		return err
	}
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		return err
	}
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	strat := sleepscale.NewStaticStrategy(pol, "static")
	// The shared-mode fleet predictor is built once, so its learned state
	// carries from one size's run to the next.
	shared := sleepscale.NewNaivePredictor()
	fmt.Printf("trace=%s (%d slots) T=%d dispatch=%s coordinate=%v\n\n", traceName, tr.Len(), epochT, dispatch, fc.coordinate)
	if fc.coordinate {
		fmt.Printf("%6s  %10s  %10s  %12s  %8s  %8s  %8s\n", "k", "E[R] (s)", "P95 (s)", "E[P] (W)", "epochs", "EP", "jobs/kJ")
	} else {
		fmt.Printf("%6s  %10s  %10s  %12s  %8s\n", "k", "E[R] (s)", "P95 (s)", "E[P] (W)", "epochs")
	}
	for _, k := range sizes {
		disp, err := buildDispatcher(dispatch, seed)
		if err != nil {
			return err
		}
		src, err := sleepscale.NewTraceSource(stats, tr, seed)
		if err != nil {
			return err
		}
		cfg := sleepscale.FleetConfig{
			Servers:      k,
			FreqExponent: spec.FreqExponent,
			Profile:      sleepscale.Xeon(),
			Trace:        tr,
			EpochSlots:   epochT,
			Strategy:     strat,
			Seed:         seed,
			Dispatcher:   disp,
		}
		if fc.coordinate {
			faults, err := fc.buildFaults(k, tr.Duration(), seed)
			if err != nil {
				return err
			}
			cfg.PerServer = true
			cfg.NewPredictor = sleepscale.NewNaivePredictor
			cfg.Quorum, cfg.Park = fc.quorum, fc.park
			cfg.Faults, cfg.Retry = faults, fc.retry
			coord, err := sleepscale.NewFleetCoordinator(cfg)
			if err != nil {
				return err
			}
			rep, err := coord.Run(src)
			if err != nil {
				return err
			}
			fmt.Printf("%6d  %10.4f  %10.4f  %12.2f  %8d  %8.4f  %8.2f\n",
				k, rep.MeanResponse, rep.P95Response, rep.AvgPower, len(rep.Epochs),
				rep.EnergyProportionality, rep.JobsPerJoule*1e3)
			if faults != nil {
				fmt.Printf("        faults: %d crashes, %d repairs; jobs: %d offered = %d completed + %d requeued + %d dropped (%d retries)\n",
					rep.Crashes, rep.Repairs, rep.Offered, rep.Completed, rep.Requeued, rep.Dropped, rep.Retries)
			}
			if epochsOut != "" {
				if err := sleepscale.WriteFleetEpochLog(epochsOut, rep); err != nil {
					return err
				}
			}
			if fc.faultsOut != "" {
				if err := sleepscale.WriteFaultLog(fc.faultsOut, rep.FaultEvents); err != nil {
					return err
				}
			}
			continue
		}
		cfg.Predictor = shared
		coord, err := sleepscale.NewFleetCoordinator(cfg)
		if err != nil {
			return err
		}
		rep, err := coord.Run(src)
		if err != nil {
			return err
		}
		fmt.Printf("%6d  %10.4f  %10.4f  %12.2f  %8d\n",
			k, rep.MeanResponse, rep.P95Response, rep.AvgPower, len(rep.Epochs))
		if epochsOut != "" {
			if err := sleepscale.WriteEpochLog(epochsOut, rep.Epochs); err != nil {
				return err
			}
		}
	}
	if epochsOut != "" {
		fmt.Printf("\nepoch records appended to %s (try: colq -f %s -op mean -col energy -group-by epoch)\n",
			epochsOut, epochsOut)
	}
	return nil
}

// loadFarmTrace resolves -trace: a synthetic day by name, or a column or
// CSV file.
func loadFarmTrace(name string, seed int64) (*sleepscale.Trace, error) {
	switch name {
	case "email-store":
		return sleepscale.EmailStoreTrace(1, seed), nil
	case "file-server":
		return sleepscale.FileServerTrace(1, seed), nil
	}
	return trace.ReadFile(name)
}

func parseSizes(arg string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(arg, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad size %q", s)
		}
		out = append(out, k)
	}
	return out, nil
}

// buildStream returns the streaming analogue of the materialized M/M job
// slice: a stationary Poisson/exponential source generating ≈jobs arrivals
// (horizon = jobs/λ), pulled in bounded chunks by the dispatch loop.
func buildStream(lambda, mu float64, jobs int, seed int64) (sleepscale.StreamSource, error) {
	inter, err := sleepscale.FitDistribution(1/lambda, 1)
	if err != nil {
		return nil, err
	}
	size, err := sleepscale.FitDistribution(1/mu, 1)
	if err != nil {
		return nil, err
	}
	return sleepscale.NewStationarySource(
		sleepscale.Stats{Inter: inter, Size: size}, float64(jobs)/lambda, seed)
}

// buildDispatcher resolves a -dispatch name. "pd<d>" (pd2, pd3, …) is the
// power-of-d-choices family; "lwl" is least-work-left, which prices wake-up
// latency from each server's live configuration.
func buildDispatcher(name string, seed int64) (sleepscale.Dispatcher, error) {
	switch name {
	case "jsq":
		return sleepscale.JSQ{}, nil
	case "rr":
		return &sleepscale.RoundRobin{}, nil
	case "random":
		return &sleepscale.RandomDispatch{Rng: rand.New(rand.NewSource(seed + 1))}, nil
	case "lwl":
		return &sleepscale.LeastWorkLeft{}, nil
	}
	if d, ok := strings.CutPrefix(name, "pd"); ok {
		n, err := strconv.Atoi(d)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad power-of-d dispatcher %q (want pd2, pd3, …)", name)
		}
		return &sleepscale.PowerOfD{D: n, Rng: rand.New(rand.NewSource(seed + 1))}, nil
	}
	return nil, fmt.Errorf("unknown dispatcher %q (supported: jsq, rr, random, pd<d>, lwl)", name)
}
