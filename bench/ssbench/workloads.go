package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"sleepscale/internal/colstore"
	"sleepscale/internal/core"
	"sleepscale/internal/farm"
	"sleepscale/internal/fault"
	"sleepscale/internal/fleet"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/serve"
	"sleepscale/internal/strategy"
	"sleepscale/internal/stream"
	"sleepscale/internal/trace"
	"sleepscale/internal/workload"
)

// The daemon's deployment settings: sleepscaled's default flags.
const (
	slotSeconds     = 60.0
	epochSlots      = 5
	lmsOrder        = 10
	lmsStep         = 0.5
	evalJobs        = 200
	overProvision   = 0.1
	qosRhoB         = 0.8
	checkpointEvery = 16
)

// meta describes a generated input. Set-up writes it next to the input, and
// every pass checks the program's outputs against it.
type meta struct {
	Seed   int64  `json:"seed"`
	Input  string `json:"input"`  // input file name in the input directory
	Jobs   int    `json:"jobs"`   // jobs the input offers
	Epochs int    `json:"epochs"` // epochs a run over the input closes
	Digest string `json:"digest"` // FNV-64a of the input file
}

// passResult is what one pass reports to the parent process.
type passResult struct {
	Traced   bool               `json:"traced"`
	WallS    float64            `json:"wall_s"`
	GapsMS   []float64          `json:"gaps_ms"`
	RSSMB    float64            `json:"rss_mb"`
	Epochs   int                `json:"epochs"`
	Failed   int                `json:"failed"`
	Problems []string           `json:"problems,omitempty"`
	Digest   string             `json:"digest"`
	Sim      map[string]float64 `json:"sim"`
	Layers   map[string]float64 `json:"layers"`

	// Set by the parent.
	warmup   bool    // checked, but left out of the metrics
	rawWallS float64 // WallS before rescale
	refS     float64 // reference kernel time around the pass
}

// fail records a failed check; a failed check fails every epoch of the pass.
func (r *passResult) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	r.Failed = r.Epochs
}

// benchWorkload is one scenario. setup writes its input into a directory;
// run serves that input once through the program under test, timing the
// serve with rec, and checks the outputs.
type benchWorkload interface {
	name() string
	setup(dir string, seed int64) (meta, error)
	run(dir string, m meta, rec *recorder) (passResult, error)
}

// daemonLoad replays a recorded wire feed through serve.Server, the
// sleepscaled serve loop, as fast as the server consumes it.
type daemonLoad struct {
	id    string
	spec  workload.Spec
	slots int // one-minute telemetry slots in the feed
	// static installs a fixed C6 policy instead of SleepScale.
	static bool
	// durable checkpoints every 16 epochs and keeps a colstore epoch log.
	durable bool
}

// daemonSS is the paper's decision path as deployed: sleepscaled's default
// flags — DNS, Xeon, SleepScale over the default grid — serving a recorded
// file-server trace of the given length.
func daemonSS(slots int) daemonLoad {
	return daemonLoad{id: "daemon-ss", spec: workload.DNS(), slots: slots}
}

// daemonIngest is the serve loop's own cost: the same daemon with a static C6
// policy, the Google job mix and durability on.
func daemonIngest(slots int) daemonLoad {
	return daemonLoad{id: "daemon-ingest", spec: workload.Google(), slots: slots, static: true, durable: true}
}

func (d daemonLoad) name() string { return d.id }

// setup records the feed: a file-server utilization trace and the job stream
// it drives, interleaved onto the wire as a load generator sends them.
func (d daemonLoad) setup(dir string, seed int64) (meta, error) {
	days := (d.slots + trace.MinutesPerDay - 1) / trace.MinutesPerDay
	tr, err := trace.FileServer(days, seed).Window(0, d.slots)
	if err != nil {
		return meta{}, err
	}
	stats, err := workload.NewFittedStats(d.spec)
	if err != nil {
		return meta{}, err
	}
	gen, err := stats.NewTraceGen(tr.Utilization, tr.SlotSeconds, seed)
	if err != nil {
		return meta{}, err
	}
	m := meta{Seed: seed, Input: "feed.ssw", Epochs: (d.slots + epochSlots - 1) / epochSlots}
	path := filepath.Join(dir, m.Input)
	f, err := os.Create(path)
	if err != nil {
		return meta{}, err
	}
	if err := serve.Feed(serve.NewWireWriter(f), gen, workload.SliceSlots(tr.Utilization), tr.SlotSeconds); err != nil {
		f.Close()
		return meta{}, err
	}
	if err := f.Close(); err != nil {
		return meta{}, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return meta{}, err
	}
	// The wire is the 4-byte magic, a 17-byte record per job, a 9-byte
	// record per slot and the 1-byte end marker.
	m.Jobs = int((fi.Size() - 5 - 9*int64(d.slots)) / 17)
	return m, nil
}

// qos is the mean-response constraint every workload is judged by.
func qos(spec workload.Spec) (policy.MeanResponseQoS, error) {
	return policy.NewMeanResponseQoS(qosRhoB, spec.MaxServiceRate())
}

// sleepScale builds the SleepScale strategy with sleepscaled's defaults.
func sleepScale(spec workload.Spec) (*strategy.ManagerStrategy, error) {
	q, err := qos(spec)
	if err != nil {
		return nil, err
	}
	m := &core.Manager{Profile: power.Xeon(), FreqExponent: spec.FreqExponent, Space: policy.DefaultSpace(), QoS: q}
	return strategy.NewSleepScale(m, evalJobs, overProvision)
}

func (d daemonLoad) run(dir string, m meta, rec *recorder) (passResult, error) {
	res := passResult{Epochs: m.Epochs}
	work, err := os.MkdirTemp(dir, "pass-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(work)
	feed, err := os.Open(filepath.Join(dir, m.Input))
	if err != nil {
		return res, err
	}
	defer feed.Close()
	outPath := filepath.Join(work, "epochs.ndjson")
	out, err := os.Create(outPath)
	if err != nil {
		return res, err
	}
	defer out.Close()
	q, err := qos(d.spec)
	if err != nil {
		return res, err
	}
	var strat core.Strategy = &strategy.Static{
		Policy: policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}, Label: "static"}
	if !d.static {
		if strat, err = sleepScale(d.spec); err != nil {
			return res, err
		}
	}
	var pred predict.Predictor
	if pred, err = predict.NewLMS(lmsOrder, lmsStep); err != nil {
		return res, err
	}
	var in io.Reader = feed
	var ts *tracedStrategy
	if rec.traced {
		ts = &tracedStrategy{Strategy: strat, rec: rec}
		strat = ts
		pred = &tracedPredictor{Predictor: pred, rec: rec}
		in = &tracedReader{r: feed, rec: rec}
	}
	cfg := serve.Config{
		Runner: core.LiveConfig{
			SlotSeconds: slotSeconds, EpochSlots: epochSlots, FreqExponent: d.spec.FreqExponent,
			Profile: power.Xeon(), Predictor: pred, Strategy: strat, Seed: m.Seed,
		},
		Out: &epochOut{w: out, rec: rec},
	}
	if d.durable {
		cfg.CheckpointPath = filepath.Join(work, "ss.ckpt")
		cfg.CheckpointEvery = checkpointEvery
		cfg.EpochLogPath = filepath.Join(work, "epochs.col")
	}

	rec.start("serve")
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return res, err
	}
	report, done, err := srv.Serve(in)
	wall := rec.finish()
	if err != nil {
		return res, err
	}
	res.WallS = wall.Seconds()
	res.GapsMS = rec.gapsMS(m.Epochs)
	if err := out.Close(); err != nil {
		return res, err
	}
	d.check(&res, m, report, done, outPath, cfg.EpochLogPath, q)
	res.Layers = spanMetrics(rec, m.Jobs, ts)
	if d.durable {
		res.Layers["serve.checkpoint_ms"] = checkpointCost(res.GapsMS)
	}
	return res, nil
}

// epochLine is the part of a daemon NDJSON record the checks read; the
// summary record carries done=true.
type epochLine struct {
	Done      bool    `json:"done"`
	Jobs      int     `json:"jobs"`
	MeanDelay float64 `json:"mean_delay"`
	P95Delay  float64 `json:"p95_delay"`
	Energy    float64 `json:"energy"`
}

// check verifies a daemon pass: the run finished, it closed the expected
// epochs, every job on the wire is in exactly one epoch and in the report,
// epoch energies telescope to the report's total, and a durable run logged
// every epoch. It also digests the NDJSON output and fills the simulated
// metrics.
func (d daemonLoad) check(res *passResult, m meta, rep core.RunReport, done bool, outPath, logPath string, q policy.QoS) {
	data, err := os.ReadFile(outPath)
	if err != nil {
		res.fail("read output: %v", err)
		return
	}
	res.Digest = digestBytes(data)
	var epochs, jobs, withJobs, missed int
	var energy float64
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var e epochLine
		if err := json.Unmarshal(line, &e); err != nil {
			res.fail("output line %d: %v", epochs+1, err)
			return
		}
		if e.Done {
			continue
		}
		epochs++
		jobs += e.Jobs
		energy += e.Energy
		if e.Jobs > 0 {
			withJobs++
			if !q.EpochWithinBudget(e.MeanDelay, e.P95Delay) {
				missed++
			}
		}
	}
	if !done {
		res.fail("serve stopped before the end of the feed")
	}
	if epochs != m.Epochs {
		res.fail("%d epochs closed, want %d", epochs, m.Epochs)
	}
	if jobs != m.Jobs || rep.Jobs != m.Jobs {
		res.fail("jobs: %d on the wire, %d in epochs, %d in the report", m.Jobs, jobs, rep.Jobs)
	}
	if !closeTo(energy, rep.Energy) {
		res.fail("epoch energy %.17g J does not telescope to the report's %.17g J", energy, rep.Energy)
	}
	if logPath != "" {
		r, err := colstore.Open(logPath)
		if err != nil {
			res.fail("epoch log: %v", err)
		} else {
			if r.Rows() != m.Epochs {
				res.fail("epoch log has %d rows, want %d", r.Rows(), m.Epochs)
			}
			r.Close()
		}
	}
	res.Sim = simMetrics(rep.AvgPower, rep.MeanResponse, missed, withJobs)
}

// fleetLoad replays a recorded colstore job file through fleet.Coordinator
// with per-server policies, as fast as the coordinator consumes it. The
// offered load follows one diurnal cycle over the run.
type fleetLoad struct {
	id      string
	servers int
	slots   int
	slotSec float64
	epochT  int
	// lo and hi are the per-server utilization at the diurnal trough and
	// peak.
	lo, hi float64
	// sleepScale runs per-server SleepScale; otherwise R2H(C6).
	sleepScale bool
	quorum     int
	parkTarget float64 // > 0 enables parking
	// mtbf > 0 injects seeded per-server crash/repair renewals.
	mtbf, mttr float64
}

// fleetSS is per-server decision fan-out plus park/unpark: SleepScale on
// every active server of a JSQ fleet over one diurnal day.
func fleetSS(servers, slots int) fleetLoad {
	return fleetLoad{id: "fleet-ss", servers: servers, slots: slots, slotSec: slotSeconds, epochT: epochSlots,
		lo: 0.15, hi: 0.6, sleepScale: true, quorum: servers / 4, parkTarget: 0.6}
}

// fleetRoute is JSQ routing over a non-uniform fleet — per-server R2H(C6)
// plans capped by a quorum — with seeded crashes and failover. Decisions
// cost nothing; routing is the run.
func fleetRoute(servers, slots int) fleetLoad {
	const slotSec = 2
	horizon := slotSec * float64(slots)
	return fleetLoad{id: "fleet-route", servers: servers, slots: slots, slotSec: slotSec, epochT: 2,
		lo: 0.15, hi: 0.6, quorum: servers / 4, mtbf: horizon, mttr: horizon / 20}
}

func (l fleetLoad) name() string { return l.id }

var fleetSpec = workload.DNS()

func (l fleetLoad) horizon() float64 { return float64(l.slots) * l.slotSec }

// rho is the per-server utilization the diurnal source offers at time t: the
// trough at the start and end of the run, the peak halfway.
func (l fleetLoad) rho(t float64) float64 {
	return l.lo + (l.hi-l.lo)*0.5*(1+math.Cos(2*math.Pi*(t/l.horizon()-0.5)))
}

// trace is the telemetry the coordinator sees: the offered per-server
// utilization at each slot's midpoint.
func (l fleetLoad) trace() *trace.Trace {
	tr := &trace.Trace{Name: l.id, SlotSeconds: l.slotSec, Utilization: make([]float64, l.slots)}
	for s := range tr.Utilization {
		tr.Utilization[s] = l.rho((float64(s) + 0.5) * l.slotSec)
	}
	return tr
}

// setup records the fleet-scale diurnal job stream to a colstore job file.
func (l fleetLoad) setup(dir string, seed int64) (meta, error) {
	stats, err := workload.NewFittedStats(fleetSpec)
	if err != nil {
		return meta{}, err
	}
	mu := fleetSpec.MaxServiceRate() * float64(l.servers)
	src, err := stream.NewDiurnal(stream.DiurnalConfig{
		BaseRate: l.lo * mu, PeakRate: l.hi * mu, Period: l.horizon(), Phase: 0.5,
		Size: stats.Size, Horizon: l.horizon(),
	}, seed)
	if err != nil {
		return meta{}, err
	}
	m := meta{Seed: seed, Input: "jobs.col", Epochs: (l.slots + l.epochT - 1) / l.epochT}
	w, err := colstore.Create(filepath.Join(dir, m.Input), stream.JobsSchema())
	if err != nil {
		return meta{}, err
	}
	m.Jobs, err = stream.RecordJobs(src, w.Writer)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return m, err
}

func (l fleetLoad) run(dir string, m meta, rec *recorder) (passResult, error) {
	res := passResult{Epochs: m.Epochs}
	q, err := qos(fleetSpec)
	if err != nil {
		return res, err
	}
	var strat core.Strategy
	if l.sleepScale {
		strat, err = sleepScale(fleetSpec)
	} else {
		strat, err = strategy.NewRaceToHalt(power.DeepSleep)
	}
	if err != nil {
		return res, err
	}
	newPred := func() predict.Predictor {
		p, err := predict.NewLMS(lmsOrder, lmsStep)
		if err != nil {
			panic(err) // constant, valid parameters
		}
		return p
	}
	r, err := colstore.Open(filepath.Join(dir, m.Input))
	if err != nil {
		return res, err
	}
	defer r.Close()
	var src stream.Source
	if src, err = stream.NewColJobs(r); err != nil {
		return res, err
	}
	var ts *tracedStrategy
	if rec.traced {
		ts = &tracedStrategy{Strategy: strat, rec: rec}
		strat = ts
		inner := newPred
		newPred = func() predict.Predictor { return &tracedPredictor{Predictor: inner(), rec: rec} }
		src = &tracedSource{src: src, rec: rec}
	}
	var broken int // epochs whose Observer invariants failed
	var firstBroken fleet.Epoch
	cfg := fleet.Config{
		Servers: l.servers, FreqExponent: fleetSpec.FreqExponent, Profile: power.Xeon(),
		Trace: l.trace(), EpochSlots: l.epochT, Strategy: strat,
		NewPredictor: newPred, PerServer: true, Seed: m.Seed,
		Dispatcher: farm.JSQ{}, Quorum: l.quorum,
		Park: l.parkTarget > 0, ParkTargetRho: l.parkTarget,
		Observer: func(e fleet.Epoch) {
			rec.closeEpoch(rec.now())
			// The coordinator forms the quorum's duty window when an epoch
			// opens. A server that crashes inside the epoch leaves it until
			// the next opening, so each crash may cost one shallow server.
			if e.Shallow+e.Crashes < min(l.quorum, e.Active) || e.Active+e.Parked+e.Down != l.servers {
				if broken == 0 {
					firstBroken = e
				}
				broken++
			}
		},
	}
	if l.mtbf > 0 {
		cfg.Faults, err = fault.NewRenewal(fault.RenewalConfig{
			Servers: l.servers, MTBF: l.mtbf, MTTR: l.mttr, Horizon: l.horizon()}, m.Seed)
		if err != nil {
			return res, err
		}
		cfg.Retry = fault.RetryPolicy{Budget: 3, Backoff: 0.1}
	}

	rec.start("fleet")
	coord, err := fleet.New(cfg)
	if err != nil {
		return res, err
	}
	rep, err := coord.Run(src)
	wall := rec.finish()
	if err != nil {
		return res, err
	}
	res.WallS = wall.Seconds()
	res.GapsMS = rec.gapsMS(m.Epochs)
	l.check(&res, m, rep, q)
	if broken > 0 {
		res.fail("%d epochs broke the quorum or the active+parked+down=k ledger, first %+v", broken, firstBroken)
	}
	res.Layers = spanMetrics(rec, m.Jobs, ts)
	var active, unparked float64
	for _, e := range rep.FleetEpochs {
		active += float64(e.Active)
		unparked += float64(e.Unparked)
	}
	res.Layers["fleet.active_mean"] = active / float64(max(1, len(rep.FleetEpochs)))
	res.Layers["fleet.unparked"] = unparked
	res.Layers["fleet.crashes"] = float64(rep.Crashes)
	res.Layers["fleet.requeued"] = float64(rep.Requeued)
	res.Layers["fleet.dropped"] = float64(rep.Dropped)
	res.Layers["fleet.retries"] = float64(rep.Retries)
	return res, nil
}

// check verifies a fleet pass: the expected epochs closed, every offered job
// is accounted for (offered = completed + requeued + dropped under faults;
// every job in an epoch and in the report otherwise), and epoch energies
// telescope to the report's total. It also digests the epoch records and
// fills the simulated metrics.
func (l fleetLoad) check(res *passResult, m meta, rep *fleet.Report, q policy.QoS) {
	res.Digest = digestFleet(rep)
	if len(rep.Epochs) != m.Epochs || len(rep.FleetEpochs) != m.Epochs {
		res.fail("%d epochs closed, want %d", len(rep.Epochs), m.Epochs)
	}
	var jobs, withJobs, missed int
	var energy float64
	for _, e := range rep.Epochs {
		jobs += e.Jobs
		energy += e.Energy
		if e.Jobs > 0 {
			withJobs++
			if !q.EpochWithinBudget(e.MeanDelay, e.P95Delay) {
				missed++
			}
		}
	}
	if l.mtbf > 0 {
		if rep.Offered != m.Jobs || rep.Offered != rep.Completed+rep.Requeued+rep.Dropped || rep.Completed != rep.Jobs {
			res.fail("ledger: %d recorded, offered %d != completed %d + requeued %d + dropped %d (report jobs %d)",
				m.Jobs, rep.Offered, rep.Completed, rep.Requeued, rep.Dropped, rep.Jobs)
		}
	} else if jobs != m.Jobs || rep.Jobs != m.Jobs {
		res.fail("jobs: %d recorded, %d in epochs, %d in the report", m.Jobs, jobs, rep.Jobs)
	}
	if !closeTo(energy, rep.Energy) {
		res.fail("epoch energy %.17g J does not telescope to the report's %.17g J", energy, rep.Energy)
	}
	res.Sim = simMetrics(rep.AvgPower, rep.MeanResponse, missed, withJobs)
}

// closeTo reports agreement within 1e-9 relative.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func simMetrics(power, resp float64, missed, withJobs int) map[string]float64 {
	miss := 0.0
	if withJobs > 0 {
		miss = float64(missed) / float64(withJobs)
	}
	return map[string]float64{"avg_power_w": power, "mean_response_ms": resp * 1e3, "qos_miss_frac": miss}
}

// spanMetrics derives the span-based per-layer metrics of a pass. Untraced
// passes record only the root span, so their decorator layers read zero.
func spanMetrics(rec *recorder, jobs int, ts *tracedStrategy) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = 0
	}
	ls := rec.layers()
	get := func(name string) *layer {
		if l := ls[name]; l != nil {
			return l
		}
		return &layer{}
	}
	dec := get("decide")
	out["strategy.decide_calls"] = float64(dec.calls)
	out["strategy.decide_ms"] = float64(dec.total) / 1e6
	out["strategy.decide_p50_us"] = percentile(dec.durs, 50) / 1e3
	out["strategy.decide_p95_us"] = percentile(dec.durs, 95) / 1e3
	if ts != nil && ts.candidates > 0 {
		out["strategy.candidates"] = float64(ts.candidates)
		out["strategy.ns_per_candidate_job"] = float64(dec.total) / float64(ts.candidates*evalJobs)
	}
	self := float64(get(rec.root).self)
	out[rec.root+".self_ms"] = self / 1e6
	if jobs > 0 {
		out[rec.root+".ns_per_job"] = self / float64(jobs)
	}
	out["serve.read_ms"] = float64(get("read").total) / 1e6
	out["serve.emit_ms"] = float64(get("emit").total) / 1e6
	out["stream.next_calls"] = float64(get("stream.next").calls)
	out["stream.ms"] = float64(get("stream.next").total) / 1e6
	out["predict.calls"] = float64(get("predict").calls)
	out["predict.ms"] = float64(get("predict").total) / 1e6
	out["par.pooled_runs"] = float64(rec.par1.Pooled - rec.par0.Pooled)
	out["par.inline_runs"] = float64(rec.par1.Inline - rec.par0.Inline)
	out["par.steals"] = float64(rec.par1.Steals - rec.par0.Steals)
	out["runtime.alloc_mb"] = float64(rec.mem1.TotalAlloc-rec.mem0.TotalAlloc) / 1e6
	out["runtime.gc_cycles"] = float64(rec.mem1.NumGC - rec.mem0.NumGC)
	return out
}

// checkpointCost estimates one checkpoint's host cost from the epoch gaps: a
// checkpoint is written after the close of every 16th epoch, so it lands in
// the gap ending at the next close. The estimate is the median of those gaps
// minus the median of the rest.
func checkpointCost(gaps []float64) float64 {
	var with, without []float64
	for i, g := range gaps {
		if (i+1)%checkpointEvery == 0 { // gaps[i] ends at close i+1
			with = append(with, g)
		} else {
			without = append(without, g)
		}
	}
	if len(with) == 0 || len(without) == 0 {
		return 0
	}
	return percentile(with, 50) - percentile(without, 50)
}

func digestBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestFile is the FNV-64a of a file's bytes.
func digestFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, bufio.NewReaderSize(f, 1<<16)); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// digestFleet is the FNV-64a of a fleet run's epoch records, floats as raw
// bits.
func digestFleet(rep *fleet.Report) string {
	h := fnv.New64a()
	for i, e := range rep.Epochs {
		putFloats(h, float64(e.Index), e.Predicted, e.Realized, e.Policy.Frequency, float64(e.Jobs),
			e.MeanDelay, e.P95Delay, e.Energy, e.BusyTime, e.WakeTime, e.IdleTime)
		h.Write([]byte(e.Policy.Plan.Name))
		if i < len(rep.FleetEpochs) {
			f := rep.FleetEpochs[i]
			putFloats(h, float64(f.Active), float64(f.Parked), float64(f.Shallow), float64(f.Unparked),
				f.MeanFrequency, float64(f.Down), float64(f.Crashes), float64(f.Repairs),
				float64(f.Lost), float64(f.Dropped))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func putFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}
