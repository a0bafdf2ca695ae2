// Command tracesim drives one power-management strategy through a
// utilization trace (the §6 evaluation loop) and reports response time,
// power and the distribution of selected sleep states. It can load a trace
// from CSV or the columnar format (sniffed by magic), or generate the
// synthetic file-server / email-store days.
//
// Usage:
//
//	tracesim -strategy SS -predictor LC -T 5 -alpha 0.35 \
//	         -trace email-store -workload DNS -rhob 0.8
//	tracesim -trace email-store -days 7 -convert week.col   # trace → columnar
//	tracesim -trace week.col -convert week.csv              # columnar → CSV
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"sleepscale"
	"sleepscale/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracesim: ")
	var (
		strategyName  = flag.String("strategy", "SS", "SS, SS(C3), DVFS, R2H(C3) or R2H(C6)")
		predictorName = flag.String("predictor", "LC", strings.Join(predictorNames, ", "))
		epochMinutes  = flag.Int("T", 5, "policy update interval in minutes")
		alpha         = flag.Float64("alpha", 0.35, "over-provisioning factor α")
		traceName     = flag.String("trace", "email-store", "email-store, file-server, or a CSV or column file path")
		workloadName  = flag.String("workload", "DNS", "DNS, Mail or Google")
		rhoB          = flag.Float64("rhob", 0.8, "baseline peak design utilization")
		days          = flag.Int("days", 1, "trace days to generate")
		winStart      = flag.Int("window-start", 120, "daily window start minute (2 AM)")
		winEnd        = flag.Int("window-end", 1200, "daily window end minute (8 PM)")
		evalJobs      = flag.Int("evaljobs", 1500, "bootstrap jobs per policy selection")
		seed          = flag.Int64("seed", 1, "seed")
		verbose       = flag.Bool("v", false, "print per-epoch decisions")
		burst         = flag.String("burst", "none", "overlay a bursty arrival source on the trace stream: none, mmpp or flash")
		convert       = flag.String("convert", "", "write the loaded trace to this path (.csv → CSV, else columnar) and exit")
	)
	flag.Parse()

	spec, err := specByName(*workloadName)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := loadTrace(*traceName, *days, *seed, *winStart, *winEnd)
	if err != nil {
		log.Fatal(err)
	}
	if *convert != "" {
		if err := convertTrace(tr, *convert); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d slots (%gs each) to %s\n", tr.Len(), tr.SlotSeconds, *convert)
		return
	}
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		log.Fatal(err)
	}
	qos, err := sleepscale.NewMeanResponseQoS(*rhoB, spec.MaxServiceRate())
	if err != nil {
		log.Fatal(err)
	}
	strat, err := buildStrategy(*strategyName, spec, qos, *evalJobs, *alpha)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := buildPredictor(*predictorName, tr, *winEnd-*winStart)
	if err != nil {
		log.Fatal(err)
	}

	cfg := sleepscale.RunnerConfig{
		Stats:        stats,
		FreqExponent: spec.FreqExponent,
		Profile:      sleepscale.Xeon(),
		Trace:        tr,
		EpochSlots:   *epochMinutes,
		Predictor:    pred,
		Strategy:     strat,
		Seed:         *seed,
	}
	var rep sleepscale.RunReport
	if *burst != "none" {
		src, err := buildSource(stats, tr, *burst, *seed)
		if err != nil {
			log.Fatal(err)
		}
		rep, err = sleepscale.RunSource(cfg, src)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		rep, err = sleepscale.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("strategy=%s predictor=%s T=%dmin α=%.2f workload=%s trace=%s (%d slots)\n",
		rep.Strategy, rep.Predictor, *epochMinutes, *alpha, spec.Name, *traceName, tr.Len())
	fmt.Printf("jobs           %d\n", rep.Jobs)
	fmt.Printf("mean response  %.4f s (budget %.4f s, within=%t)\n",
		rep.MeanResponse, qos.Budget, rep.MeanResponse <= qos.Budget)
	fmt.Printf("p95 response   %.4f s\n", rep.P95Response)
	fmt.Printf("avg power      %.2f W\n", rep.AvgPower)
	fmt.Printf("energy         %.1f kJ over %.1f h\n", rep.Energy/1e3, rep.Duration/3600)
	fmt.Printf("mean frequency %.3f\n", rep.MeanFrequency)
	fmt.Println("state usage (fraction of epochs):")
	fr := rep.PlanFractions()
	names := make([]string, 0, len(fr))
	for n := range fr {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-12s %.3f\n", n, fr[n])
	}
	if *verbose {
		fmt.Println("epoch\tpredicted\trealized\tpolicy\tjobs\tmean_delay_s")
		for _, e := range rep.Epochs {
			fmt.Printf("%d\t%.3f\t%.3f\t%v\t%d\t%.4f\n",
				e.Index, e.Predicted, e.Realized, e.Policy, e.Jobs, e.MeanDelay)
		}
	}
}

// buildSource assembles the streaming job source for a -burst run: the
// trace-driven generator, seeded like the default path, merged with the
// named bursty overlay.
func buildSource(stats sleepscale.Stats, tr *sleepscale.Trace, burst string, seed int64) (sleepscale.StreamSource, error) {
	src, err := sleepscale.NewTraceSource(stats, tr, seed)
	if err != nil {
		return nil, err
	}
	switch burst {
	case "mmpp":
		// On/off bursts at twice the workload's native rate, ~5 min on,
		// ~20 min off.
		overlay, err := sleepscale.NewMMPPSource(sleepscale.MMPPConfig{
			OnRate:  2 / stats.Inter.Mean(),
			OffRate: 0,
			MeanOn:  300,
			MeanOff: 1200,
			Size:    stats.Size,
			Horizon: tr.Duration(),
		}, seed+1)
		if err != nil {
			return nil, err
		}
		return sleepscale.MergeSources(src, overlay), nil
	case "flash":
		// Flash crowds: ~hourly onsets spiking to 9× a light base rate,
		// decaying over ~2 minutes.
		overlay, err := sleepscale.NewFlashCrowdSource(sleepscale.FlashCrowdConfig{
			BaseRate:   0.2 / stats.Inter.Mean(),
			SpikeEvery: 3600,
			Peak:       8,
			Decay:      120,
			Size:       stats.Size,
			Horizon:    tr.Duration(),
		}, seed+1)
		if err != nil {
			return nil, err
		}
		return sleepscale.MergeSources(src, overlay), nil
	}
	return nil, fmt.Errorf("unknown burst overlay %q", burst)
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

func loadTrace(name string, days int, seed int64, winStart, winEnd int) (*sleepscale.Trace, error) {
	var full *sleepscale.Trace
	switch name {
	case "email-store":
		full = sleepscale.EmailStoreTrace(days, seed)
	case "file-server":
		full = sleepscale.FileServerTrace(days, seed)
	default:
		return trace.ReadFile(name)
	}
	return full.DailyWindow(winStart, winEnd)
}

// convertTrace writes tr in the format the destination extension names:
// .csv gets the text format, anything else the columnar binary.
func convertTrace(tr *sleepscale.Trace, path string) error {
	if strings.HasSuffix(path, ".csv") {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tr.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return tr.WriteCol(path)
}

func buildStrategy(name string, spec sleepscale.Spec, qos sleepscale.QoS,
	evalJobs int, alpha float64) (sleepscale.Strategy, error) {
	mgr := sleepscale.NewManager(sleepscale.Xeon(), spec, qos)
	mgr.Space.FreqStep = 0.02
	switch name {
	case "SS":
		return sleepscale.NewSleepScaleStrategy(mgr, evalJobs, alpha)
	case "SS(C3)":
		return sleepscale.NewFixedSleepStrategy(mgr, sleepscale.Sleep, evalJobs, alpha)
	case "DVFS":
		return sleepscale.NewDVFSOnlyStrategy(mgr, evalJobs, alpha)
	case "R2H(C3)":
		return sleepscale.NewRaceToHaltStrategy(sleepscale.Sleep)
	case "R2H(C6)":
		return sleepscale.NewRaceToHaltStrategy(sleepscale.DeepSleep)
	}
	return nil, fmt.Errorf("unknown strategy %q", name)
}

// predictorNames lists the -predictor values buildPredictor accepts.
var predictorNames = []string{"LC", "LC+seasonal", "LMS", "NP", "Offline"}

func buildPredictor(name string, tr *sleepscale.Trace, daySlots int) (sleepscale.Predictor, error) {
	switch name {
	case "NP":
		return sleepscale.NewNaivePredictor(), nil
	case "LMS":
		return sleepscale.NewLMSPredictor(10, 0.5)
	case "LC":
		return sleepscale.NewLMSCUSUMPredictor(10, 0.5)
	case "LC+seasonal":
		base, err := sleepscale.NewLMSCUSUMPredictor(10, 0.5)
		if err != nil {
			return nil, err
		}
		if daySlots < 1 {
			daySlots = tr.Len()
		}
		return sleepscale.NewSeasonalPredictor(base, daySlots)
	case "Offline":
		return sleepscale.NewOfflinePredictor(tr.Utilization), nil
	}
	return nil, fmt.Errorf("unknown predictor %q (want %s)", name, strings.Join(predictorNames, ", "))
}
