// Command ssbench is the repository's end-to-end benchmark. It runs the
// SleepScale daemon and the coordinated fleet over recorded inputs it
// generates from a seed, checks every output, and prints each end-to-end
// metric by name with its unit; a traced run prints per-layer metrics and
// writes the spans they come from.
//
// Usage:
//
//	bash bench/run.sh --workload daemon-ss --seed 1 --seconds 20 --trace 0
//
// run.sh builds this command from the checkout and passes its flags through.
// -workload takes daemon-ss, daemon-ingest, fleet-ss, fleet-route or all
// (the default). Set-up generates the workload's input file repeatedly and
// reports the median time as setup_s. After one warm-up pass, measurement
// serves the input in fresh child processes, one pass each, until -seconds
// have passed, and reports medians over the passes. Host times are scaled to
// a reference speed measured between passes (see speed.go). -trace 1 alternates
// untraced and traced passes and reports the per-layer metrics of the traced
// ones instead. The last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": 2880, "failed": 0, "metrics": {"wall_s": {"value": 2.1, "unit": "s"}, ...}}
//
// attempted counts the epochs the passes ran, failed the epochs whose checks
// failed (a failed whole-run check fails every epoch of its pass).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sleepscale/internal/metrics"
)

// Workload lengths. They keep one pass at 0.5–4 s on a 2-core x86 VM, so a
// run of 20 s measures several passes, while every pass still closes at
// least 200 epochs: each pass's epoch p95 then has at least ten samples
// beyond it.
const (
	daemonSSSlots     = 2 * 1440 // two days of one-minute slots: 576 epochs
	daemonIngestSlots = 2 * 1440
	fleetSSServers    = 8
	fleetSSSlots      = 1440 // one day: 288 epochs
	fleetRouteServers = 1000
	fleetRouteSlots   = 420 // 210 epochs
)

func workloads() []benchWorkload {
	return []benchWorkload{
		daemonSS(daemonSSSlots),
		daemonIngest(daemonIngestSlots),
		fleetSS(fleetSSServers, fleetSSSlots),
		fleetRoute(fleetRouteServers, fleetRouteSlots),
	}
}

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by untraced
// runs. avg_power_w and mean_response_ms come from the simulation.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"epoch_p50_ms", "ms"},
	{"epoch_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"avg_power_w", "W"},
	{"mean_response_ms", "ms"},
}

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = []metric{
	{"strategy.decide_calls", "count"},
	{"strategy.decide_ms", "ms"},
	{"strategy.decide_p50_us", "us"},
	{"strategy.decide_p95_us", "us"},
	{"strategy.candidates", "count"},
	{"strategy.ns_per_candidate_job", "ns"},
	{"fleet.self_ms", "ms"},
	{"fleet.ns_per_job", "ns"},
	{"fleet.active_mean", "count"},
	{"fleet.unparked", "count"},
	{"fleet.crashes", "count"},
	{"fleet.requeued", "count"},
	{"fleet.dropped", "count"},
	{"fleet.retries", "count"},
	{"serve.self_ms", "ms"},
	{"serve.ns_per_job", "ns"},
	{"serve.read_ms", "ms"},
	{"serve.emit_ms", "ms"},
	{"serve.checkpoint_ms", "ms"},
	{"stream.next_calls", "count"},
	{"stream.ms", "ms"},
	{"predict.calls", "count"},
	{"predict.ms", "ms"},
	{"par.pooled_runs", "count"},
	{"par.inline_runs", "count"},
	{"par.steals", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"sim.qos_miss_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

const (
	// Set-up repeats at least minSetups times and until setupTime has been
	// spent (at most maxSetups times): a set-up of a few milliseconds then
	// still has a steady median.
	minSetups = 3
	maxSetups = 200
	setupTime = 2 * time.Second
	minPasses = 3
	// passTimeout bounds one child process, so a wedged pass cannot hold
	// the benchmark past its time limit.
	passTimeout = 120 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	workdir  string

	pass  string // child mode: serve the input in this directory once
	spans string // child mode: write the traced pass's spans here
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ssbench: ")
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload: daemon-ss, daemon-ingest, fleet-ss, fleet-route or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time per workload, seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from traced passes; 0 reports end-to-end metrics")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "ssbench-work"), "directory for generated inputs and spans")
	flag.StringVar(&o.pass, "pass", "", "internal: serve the input in this directory once and print the result")
	flag.StringVar(&o.spans, "spans", "", "internal: with -pass and -trace 1, write spans to this file")
	flag.Parse()

	var err error
	if o.pass != "" {
		err = runPass(o, os.Stdout)
	} else {
		err = run(o, os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func lookup(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name() == name {
			return w, nil
		}
		names = append(names, w.name())
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(names, ", "))
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures the selected workloads and prints their metrics, ending with
// the JSON result line. With -workload all the metric names carry the
// workload as a prefix.
func run(o options, stdout io.Writer) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	ws := workloads()
	if o.workload != "all" {
		w, err := lookup(o.workload)
		if err != nil {
			return err
		}
		ws = []benchWorkload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	final := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, w := range ws {
		r, err := measure(w, o, exe, stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name(), err)
		}
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for name, v := range r.Metrics {
			if len(ws) > 1 {
				name = w.name() + "." + name
			}
			final.Metrics[name] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// measure sets one workload up and serves it in child processes until the
// measurement time has passed, then aggregates the passes.
func measure(w benchWorkload, o options, exe string, stdout io.Writer) (result, error) {
	dir, err := os.MkdirTemp(o.workdir, w.name()+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	var problems []string
	var setups []float64
	var m meta
	ref := refKernel()
	for spent := 0.0; len(setups) < minSetups || (spent < setupTime.Seconds() && len(setups) < maxSetups); {
		t := time.Now()
		mi, err := w.setup(dir, o.seed)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		spent += setups[len(setups)-1]
		if mi.Digest, err = digestFile(filepath.Join(dir, mi.Input)); err != nil {
			return result{}, err
		}
		if len(setups) > 1 && mi != m {
			problems = append(problems, fmt.Sprintf("set-up is not deterministic: %+v then %+v", m, mi))
		}
		m = mi
	}
	next := refKernel()
	for i := range setups {
		setups[i] *= speedScale(ref, next)
	}
	ref = next
	mb, err := json.Marshal(m)
	if err != nil {
		return result{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), mb, 0o644); err != nil {
		return result{}, err
	}
	spans := ""
	if o.trace == 1 {
		sdir := filepath.Join(o.workdir, "spans")
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return result{}, err
		}
		spans = filepath.Join(sdir, fmt.Sprintf("%s-seed%d.jsonl", w.name(), o.seed))
	}

	// serve runs one pass, then the reference kernel, and takes the pass's
	// host times to the reference speed.
	serve := func(traced bool) passResult {
		p := runChild(exe, w.name(), dir, m, traced, spans)
		next := refKernel()
		p.rescale(ref, next)
		ref = next
		return p
	}
	// The first pass warms the page cache and the machine; it is checked
	// like the others but left out of the metrics.
	warm := serve(false)
	warm.warmup = true
	passes := []passResult{warm}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(passes) <= minPasses || time.Now().Before(deadline) {
		passes = append(passes, serve(o.trace == 1 && len(passes)%2 == 0))
	}
	r := aggregate(w.name(), m, setups, passes, o.trace == 1, problems)
	printReport(stdout, w.name(), o, m, setups, passes, r, spans)
	return r, nil
}

// runChild serves the input once in a fresh process, so that the pass's
// peak RSS is its own. A pass that dies fails all its epochs.
func runChild(exe, name, dir string, m meta, traced bool, spans string) passResult {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-pass", dir, "-trace", trace, "-spans", spans)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var res passResult
	if err == nil {
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	}
	if err != nil {
		return passResult{Traced: traced, Epochs: m.Epochs, Failed: m.Epochs,
			Problems: []string{fmt.Sprintf("pass process: %v", err)}}
	}
	return res
}

// runPass is the child: serve the input once, print the passResult as JSON.
func runPass(o options, stdout io.Writer) error {
	w, err := lookup(o.workload)
	if err != nil {
		return err
	}
	mb, err := os.ReadFile(filepath.Join(o.pass, "meta.json"))
	if err != nil {
		return err
	}
	var m meta
	if err := json.Unmarshal(mb, &m); err != nil {
		return err
	}
	res, err := pass(w, o.pass, m, o.trace == 1, o.spans)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// pass serves the input in dir once. A traced pass writes its spans to the
// spans file when one is named. Failures of the program under test land in
// the result; the error reports a failure of the benchmark itself.
func pass(w benchWorkload, dir string, m meta, traced bool, spans string) (passResult, error) {
	rec := &recorder{traced: traced}
	res, err := w.run(dir, m, rec)
	if err != nil {
		res.fail("%v", err)
	}
	res.Traced = traced
	if res.RSSMB, err = peakRSSMB(); err != nil {
		return res, err
	}
	if traced && spans != "" {
		if err := rec.writeSpans(spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// aggregate folds the passes of one workload into its metrics: medians over
// the passes but the warm-up, the epoch-gap percentiles included — each
// pass's p50 and p95 gap, then their medians, so that one pass slowed by the
// machine does not fill the tail. Every pass must agree on the simulated
// results and the output digest.
func aggregate(name string, m meta, setups []float64, passes []passResult, traced bool, problems []string) result {
	r := result{Metrics: make(map[string]metricValue)}
	var walls, tracedWalls, rss, p50s, p95s []float64
	layers := make(map[string][]float64)
	for i, p := range passes {
		r.Attempted += p.Epochs
		r.Failed += p.Failed
		for _, msg := range p.Problems {
			problems = append(problems, fmt.Sprintf("pass %d: %s", i+1, msg))
		}
		if p.Failed > 0 {
			continue
		}
		if p.Digest != passes[0].Digest || fmt.Sprint(p.Sim) != fmt.Sprint(passes[0].Sim) {
			problems = append(problems, fmt.Sprintf("pass %d: output differs from pass 1", i+1))
		}
		switch {
		case p.warmup:
		case p.Traced:
			tracedWalls = append(tracedWalls, p.WallS)
			for k, v := range p.Layers {
				layers[k] = append(layers[k], v)
			}
		default:
			walls = append(walls, p.WallS)
			rss = append(rss, p.RSSMB)
			p50s = append(p50s, percentile(p.GapsMS, 50))
			p95s = append(p95s, percentile(p.GapsMS, 95))
		}
	}
	for _, msg := range problems {
		log.Printf("%s: %s", name, msg)
	}
	r.Correct = len(problems) == 0 && r.Failed == 0
	if traced {
		for _, mt := range perLayer {
			v := percentile(layers[mt.name], 50)
			switch mt.name {
			case "sim.qos_miss_frac":
				v = passes[0].Sim["qos_miss_frac"]
			case "trace.overhead_frac":
				v = 0
				if len(walls) > 0 && len(tracedWalls) > 0 {
					v = percentile(tracedWalls, 50)/percentile(walls, 50) - 1
				}
			}
			r.Metrics[mt.name] = metricValue{v, mt.unit}
		}
		return r
	}
	values := map[string]float64{
		"setup_s":          percentile(setups, 50),
		"wall_s":           percentile(walls, 50),
		"epoch_p50_ms":     percentile(p50s, 50),
		"epoch_p95_ms":     percentile(p95s, 50),
		"peak_rss_mb":      percentile(rss, 50),
		"avg_power_w":      passes[0].Sim["avg_power_w"],
		"mean_response_ms": passes[0].Sim["mean_response_ms"],
	}
	for _, mt := range endToEnd {
		r.Metrics[mt.name] = metricValue{values[mt.name], mt.unit}
	}
	return r
}

// printReport prints one workload's human-readable block.
func printReport(w io.Writer, name string, o options, m meta, setups []float64, passes []passResult, r result, spans string) {
	fmt.Fprintf(w, "%s  seed %d  %d jobs  %d epochs/pass  %d passes  digest %s\n",
		name, o.seed, m.Jobs, m.Epochs, len(passes), passes[0].Digest)
	names := endToEnd
	if o.trace == 1 {
		names = perLayer
	}
	for _, mt := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", mt.name, r.Metrics[mt.name].Value, mt.unit)
	}
	fmt.Fprintf(w, "  set-ups: %d, %.4g–%.4g s\n", len(setups), percentile(setups, 0), percentile(setups, 100))
	fmt.Fprintf(w, "  raw pass walls (s, w = warm-up, t = traced):")
	refs := make([]float64, len(passes))
	for i, p := range passes {
		mark := ""
		switch {
		case p.warmup:
			mark = "w"
		case p.Traced:
			mark = "t"
		}
		fmt.Fprintf(w, " %.3f%s", p.rawWallS, mark)
		refs[i] = p.refS
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  reference kernel around passes: %.4g–%.4g s, nominal %g s (host times above are scaled by nominal/kernel)\n",
		percentile(refs, 0), percentile(refs, 100), refNominal)
	if o.trace == 0 {
		n := len(passes[0].GapsMS)
		fmt.Fprintf(w, "  epoch gaps per pass: %d samples, %d beyond p95\n", n, beyond(n, 95))
	} else {
		fmt.Fprintf(w, "  spans of the last traced pass: %s\n", spans)
	}
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-30s %14.6g (%d failed of %d epochs)\n", "error_rate", rate, r.Failed, r.Attempted)
}

// percentile is the nearest-rank p-th percentile of xs: the smallest value
// with at least p% of the samples at or below it. It is 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	var s metrics.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.PercentileNearestRank(p)
}

// beyond counts the samples above the nearest-rank p-th percentile of n
// samples. A percentile is reported only where this is at least ten.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}
