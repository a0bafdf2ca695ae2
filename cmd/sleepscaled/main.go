// Command sleepscaled runs SleepScale as a live daemon: job arrivals and
// per-slot utilization telemetry stream in over the binary wire protocol,
// per-epoch stats and policy decisions stream out as NDJSON on stdout, and
// the runner state checkpoints durably so a killed daemon restarts
// bit-identically to one that never stopped.
//
// Usage:
//
//	sleepscaled -listen - < week.ssw
//	sleepscaled -listen unix:/run/sleepscale.sock -checkpoint ss.ckpt
//	sleepscaled -listen tcp:127.0.0.1:7070 -strategy sleepscale -predictor lms
//	sleepscaled -listen week.ssw -restore -replay -checkpoint ss.ckpt
//
// -listen takes "-" (stdin), "unix:<path>" or "tcp:<addr>", or a plain path
// to a recorded wire stream. Socket feeds carry a read deadline and a
// bounded reconnect budget (-read-timeout, -reconnects): a producer that
// stalls or drops is cut loose and a replacement may reconnect with a fresh
// wire stream — a wedged client can never hang the serve loop. With
// -checkpoint the daemon persists its state every -checkpoint-every epochs
// and on SIGTERM/SIGINT; -restore resumes from that checkpoint (reporting
// whether the primary file or its rotated .prev snapshot was used), and
// -replay tells the daemon the feed restarts from the beginning of the
// stream (a replayed pipe or file) so already-served events are skipped.
// -epochs-out tees closed epochs to a colstore log for cmd/colq, exactly
// once across restarts.
//
// -faults gates ingest with a scripted outage timeline for the daemon's
// single server (server 0 in the schedule): arrivals inside a crash..repair
// window are shed and accounted in the summary, and -faults-out tees the
// applied events to a colstore fault log.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sleepscale"
	"sleepscale/internal/power"
	"sleepscale/internal/workload"
)

type options struct {
	listen      string
	workload    string
	profile     string
	strategy    string
	predictor   string
	lmsOrder    int
	lmsStep     float64
	epochSlots  int
	slotSeconds float64
	qos         float64
	evalJobs    int
	alpha       float64
	seed        int64

	checkpoint      string
	checkpointEvery int
	restore         bool
	replay          bool
	epochsOut       string

	faults      string
	faultsOut   string
	readTimeout time.Duration
	reconnects  int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sleepscaled: ")
	var o options
	flag.StringVar(&o.listen, "listen", "-", `feed: "-" (stdin), "unix:<path>", "tcp:<addr>", or a recorded stream file`)
	flag.StringVar(&o.workload, "workload", "DNS", "workload spec: DNS, Mail or Google (sets µ and β)")
	flag.StringVar(&o.profile, "profile", "xeon", "power profile: xeon or atom")
	flag.StringVar(&o.strategy, "strategy", "sleepscale", "strategy: sleepscale, analytic, race or static")
	flag.StringVar(&o.predictor, "predictor", "lms", "predictor: lms, lms-cusum or naive")
	flag.IntVar(&o.lmsOrder, "lms-order", 10, "LMS history depth")
	flag.Float64Var(&o.lmsStep, "lms-step", 0.5, "LMS adaptation step")
	flag.IntVar(&o.epochSlots, "T", 5, "telemetry slots per policy epoch")
	flag.Float64Var(&o.slotSeconds, "slot-seconds", 60, "telemetry slot length in seconds")
	flag.Float64Var(&o.qos, "qos", 0.8, "QoS budget factor ρ_B for the mean-response constraint")
	flag.IntVar(&o.evalJobs, "eval-jobs", 200, "bootstrap jobs per candidate policy evaluation")
	flag.Float64Var(&o.alpha, "alpha", 0.1, "over-provisioning factor α")
	flag.Int64Var(&o.seed, "seed", 1, "decision-stream seed")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint path (empty disables durability)")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 16, "checkpoint cadence in epochs")
	flag.BoolVar(&o.restore, "restore", false, "resume from -checkpoint instead of starting fresh")
	flag.BoolVar(&o.replay, "replay", false, "with -restore: the feed restarts from the beginning of the stream")
	flag.StringVar(&o.epochsOut, "epochs-out", "", "tee per-epoch records to this column file (query with colq)")
	flag.StringVar(&o.faults, "faults", "", `scripted outage schedule file ("<time> <server> crash|repair" per line; server 0 is the daemon)`)
	flag.StringVar(&o.faultsOut, "faults-out", "", "with -faults: append applied fault events to this column file (query with colq)")
	flag.DurationVar(&o.readTimeout, "read-timeout", time.Minute, "socket feeds: cut a producer that sends nothing for this long (0 disables)")
	flag.IntVar(&o.reconnects, "reconnects", 4, "socket feeds: producer reconnects allowed after a stall or drop")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the server and drives it over the feed, draining gracefully on
// SIGTERM/SIGINT.
func run(o options, out io.Writer) error {
	cfg, err := buildConfig(o, out)
	if err != nil {
		return err
	}
	var srv *sleepscale.ServeServer
	if o.restore {
		srv, err = sleepscale.RestoreServeServer(cfg, o.replay)
	} else {
		srv, err = sleepscale.NewServeServer(cfg)
	}
	if err != nil {
		return err
	}
	if o.restore {
		if from := srv.RestoredFrom(); from != o.checkpoint {
			log.Printf("checkpoint %s missing or damaged; restored from rotated previous snapshot %s", o.checkpoint, from)
		} else {
			log.Printf("restored from checkpoint %s", from)
		}
	}
	feed, err := openFeed(o)
	if err != nil {
		return err
	}
	defer feed.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			srv.Stop()
			feed.Close() // unblock a pending read; part of the drain
		}
	}()

	_, done, err := srv.Serve(feed)
	if err != nil {
		return err
	}
	if !done {
		log.Printf("drained at epoch %d (slot %d); state persisted to %s",
			srv.Runner().Epoch(), srv.Runner().Slot(), o.checkpoint)
	}
	return nil
}

// buildConfig resolves the flag set into a serve configuration.
func buildConfig(o options, out io.Writer) (sleepscale.ServeConfig, error) {
	var zero sleepscale.ServeConfig
	if o.restore && o.checkpoint == "" {
		return zero, fmt.Errorf("-restore needs -checkpoint")
	}
	if o.faultsOut != "" && o.faults == "" {
		return zero, fmt.Errorf("-faults-out needs -faults")
	}
	var faults sleepscale.FaultSource
	if o.faults != "" {
		text, err := os.ReadFile(o.faults)
		if err != nil {
			return zero, err
		}
		faults, err = sleepscale.ParseFaultSchedule(string(text))
		if err != nil {
			return zero, fmt.Errorf("%s: %w", o.faults, err)
		}
	}
	spec, err := workload.ByName(o.workload)
	if err != nil {
		return zero, err
	}
	prof, err := power.ProfileByName(o.profile)
	if err != nil {
		return zero, err
	}
	pred, err := buildPredictor(o)
	if err != nil {
		return zero, err
	}
	strat, err := buildStrategy(o, spec, prof)
	if err != nil {
		return zero, err
	}
	return sleepscale.ServeConfig{
		Runner: sleepscale.LiveConfig{
			SlotSeconds:  o.slotSeconds,
			EpochSlots:   o.epochSlots,
			FreqExponent: spec.FreqExponent,
			Profile:      prof,
			Predictor:    pred,
			Strategy:     strat,
			Seed:         o.seed,
		},
		CheckpointPath:  o.checkpoint,
		CheckpointEvery: o.checkpointEvery,
		EpochLogPath:    o.epochsOut,
		Out:             out,
		Faults:          faults,
		FaultLogPath:    o.faultsOut,
	}, nil
}

func buildPredictor(o options) (sleepscale.Predictor, error) {
	switch strings.ToLower(o.predictor) {
	case "lms":
		return sleepscale.NewLMSPredictor(o.lmsOrder, o.lmsStep)
	case "lms-cusum":
		return sleepscale.NewLMSCUSUMPredictor(o.lmsOrder, o.lmsStep)
	case "naive":
		return sleepscale.NewNaivePredictor(), nil
	}
	return nil, fmt.Errorf("unknown predictor %q", o.predictor)
}

func buildStrategy(o options, spec sleepscale.Spec, prof *sleepscale.Profile) (sleepscale.Strategy, error) {
	name := strings.ToLower(o.strategy)
	switch name {
	case "sleepscale", "analytic":
		qos, err := sleepscale.NewMeanResponseQoS(o.qos, spec.MaxServiceRate())
		if err != nil {
			return nil, err
		}
		m := sleepscale.NewManager(prof, spec, qos)
		if name == "analytic" {
			return sleepscale.NewAnalyticSleepScaleStrategy(m, o.alpha)
		}
		return sleepscale.NewSleepScaleStrategy(m, o.evalJobs, o.alpha)
	case "race":
		return sleepscale.NewRaceToHaltStrategy(sleepscale.DeepSleep)
	case "static":
		pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
		return sleepscale.NewStaticStrategy(pol, "static"), nil
	}
	return nil, fmt.Errorf("unknown strategy %q", o.strategy)
}

// openFeed resolves -listen into a readable event stream: stdin, a socket
// feed (with read deadline and bounded producer reconnects), or a recorded
// stream file.
func openFeed(o options) (io.ReadCloser, error) {
	switch {
	case o.listen == "-":
		return os.Stdin, nil
	case strings.HasPrefix(o.listen, "unix:"):
		return newSocketFeed("unix", strings.TrimPrefix(o.listen, "unix:"), o.readTimeout, o.reconnects)
	case strings.HasPrefix(o.listen, "tcp:"):
		return newSocketFeed("tcp", strings.TrimPrefix(o.listen, "tcp:"), o.readTimeout, o.reconnects)
	}
	return os.Open(o.listen)
}
