package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/stream"
	"sleepscale/internal/workload"
)

// reportDigest folds a run report's scalars, every epoch record and the
// per-plan epoch counts (in name order) into an FNV-64a hash, floats as raw
// IEEE-754 bits, so a whole run compares bit for bit through one constant.
func reportDigest(rep RunReport) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(x float64) { u(math.Float64bits(x)) }
	s := func(str string) {
		u(uint64(len(str)))
		h.Write([]byte(str))
	}
	s(rep.Strategy)
	s(rep.Predictor)
	u(uint64(rep.Jobs))
	f(rep.MeanResponse)
	f(rep.P95Response)
	f(rep.AvgPower)
	f(rep.Energy)
	f(rep.Duration)
	f(rep.MeanFrequency)
	names := make([]string, 0, len(rep.PlanEpochs))
	for name := range rep.PlanEpochs {
		names = append(names, name)
	}
	sort.Strings(names)
	u(uint64(len(names)))
	for _, name := range names {
		s(name)
		u(uint64(rep.PlanEpochs[name]))
	}
	u(uint64(len(rep.Epochs)))
	for _, e := range rep.Epochs {
		u(uint64(e.Index))
		f(e.Predicted)
		f(e.Realized)
		f(e.Policy.Frequency)
		s(e.Policy.Plan.Name)
		u(uint64(len(e.Policy.Plan.Phases)))
		for _, ph := range e.Policy.Plan.Phases {
			u(uint64(ph.State.CPU))
			u(uint64(ph.State.Platform))
			f(ph.Enter)
		}
		u(uint64(e.Jobs))
		f(e.MeanDelay)
		f(e.P95Delay)
		f(e.Energy)
		f(e.BusyTime)
		f(e.WakeTime)
		f(e.IdleTime)
	}
	return h.Sum64()
}

// digestStrategies are the pinned strategy shapes: a fixed policy, a policy
// switch every epoch, and a manager-backed strategy that reads the job
// window and draws from the decision RNG.
func digestStrategies(t *testing.T) map[string]func() Strategy {
	t.Helper()
	qos, err := policy.NewMeanResponseQoS(0.8, workload.DNS().MaxServiceRate())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func() Strategy{
		"static": func() Strategy {
			return &staticStrategy{pol: policy.Policy{
				Frequency: 0.7, Plan: policy.SingleState(power.DeepSleep)}}
		},
		"switching": func() Strategy {
			return &switchingStrategy{plans: []policy.Policy{
				{Frequency: 1, Plan: policy.SingleState(power.OperatingIdle)},
				{Frequency: 0.6, Plan: policy.SingleState(power.DeeperSleep)},
			}}
		},
		"manager": func() Strategy {
			return &managerStrategyForTest{m: &Manager{
				Profile:      power.Xeon(),
				FreqExponent: 1,
				Space:        policy.Space{Plans: policy.DefaultPlans(), FreqStep: 0.1, MinFreq: 0.1},
				QoS:          qos,
			}, evalJobs: 100}
		},
	}
}

// TestRunDigestPins pins Run and RunSource on the golden trace to FNV-64a
// digests recorded when the batch loop still drove its own copy of the
// epoch machine behind a one-engine shim, so they prove the runs did not
// move when RunSource became a loop over LiveRunner. The matrix
// covers three strategies × seeds {1, 2} × T ∈ {5, 7}; with T = 7 the final
// epoch is short. RunSource merges an MMPP overlay whose horizon runs past
// the trace end, so some jobs fall beyond it and must stay unread.
func TestRunDigestPins(t *testing.T) {
	want := map[string]uint64{
		"Run/static/seed1/T5":          0xa7c3a84f7e6f4286,
		"Run/static/seed1/T7":          0x335ade2a373556fd,
		"Run/static/seed2/T5":          0x3d24c4c6a529f1d8,
		"Run/static/seed2/T7":          0x2c37a36d4e94a43a,
		"Run/switching/seed1/T5":       0x8d5636086c0dfceb,
		"Run/switching/seed1/T7":       0x26edef6504eb93a7,
		"Run/switching/seed2/T5":       0x4237c482c4c9c7e2,
		"Run/switching/seed2/T7":       0xbdafdd2e9f2bfe52,
		"Run/manager/seed1/T5":         0x28bb91ebceab0045,
		"Run/manager/seed1/T7":         0x4190d3aeef2e5bd7,
		"Run/manager/seed2/T5":         0xfce09602755bc165,
		"Run/manager/seed2/T7":         0x998ebfaf731f2776,
		"RunSource/static/seed1/T5":    0x25bfa9b95b76380e,
		"RunSource/static/seed1/T7":    0x11b42cf332ebe865,
		"RunSource/static/seed2/T5":    0xc6ba43976dd72071,
		"RunSource/static/seed2/T7":    0x8c897383bdaefba6,
		"RunSource/switching/seed1/T5": 0x38369cc2b37c2249,
		"RunSource/switching/seed1/T7": 0x49d3427b54d3c40f,
		"RunSource/switching/seed2/T5": 0xc90f7e16b82f02c1,
		"RunSource/switching/seed2/T7": 0xf5f96ff9fbf40c50,
		"RunSource/manager/seed1/T5":   0xd40888eb12947a4b,
		"RunSource/manager/seed1/T7":   0xa630b1426e461c5c,
		"RunSource/manager/seed2/T5":   0xa77ee925ec911bde,
		"RunSource/manager/seed2/T7":   0x45f926cc66d08dc4,
	}
	tr := goldenTrace(t)
	for name, mk := range digestStrategies(t) {
		for _, seed := range []int64{1, 2} {
			for _, T := range []int{5, 7} {
				cfg := runnerConfig(t, mk(), tr, T)
				cfg.Seed = seed
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("Run/%s/seed%d/T%d", name, seed, T)
				if got := reportDigest(rep); got != want[key] {
					t.Errorf("%s: digest %#016x, want %#016x", key, got, want[key])
				}

				cfg = runnerConfig(t, mk(), tr, T)
				cfg.Seed = seed
				base, err := cfg.Stats.NewTraceGen(tr.Utilization, tr.SlotSeconds, seed)
				if err != nil {
					t.Fatal(err)
				}
				burst, err := stream.NewMMPP(stream.MMPPConfig{
					OnRate: 2, OffRate: 0, MeanOn: 300, MeanOff: 900,
					Size: cfg.Stats.Size, Horizon: tr.Duration() + 1800,
				}, seed+100)
				if err != nil {
					t.Fatal(err)
				}
				rep, err = RunSource(cfg, stream.Merge(base, burst))
				if err != nil {
					t.Fatal(err)
				}
				key = fmt.Sprintf("RunSource/%s/seed%d/T%d", name, seed, T)
				if got := reportDigest(rep); got != want[key] {
					t.Errorf("%s: digest %#016x, want %#016x", key, got, want[key])
				}
			}
		}
	}
}

// TestLiveCutDigestPin pins a LiveRunner run that is checkpointed with State
// at an epoch boundary, abandoned, restored with RestoreLiveRunner and
// finished, to a digest recorded before the live runner absorbed the epoch
// machine. The short final epoch (T = 7) closes through Finish.
func TestLiveCutDigestPin(t *testing.T) {
	const want uint64 = 0xb73aa9ba834bb9be
	tr, jobs := liveFixture(t)
	mk := func() LiveConfig {
		lms, err := predict.NewLMS(4, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		return LiveConfig{
			SlotSeconds:  tr.SlotSeconds,
			EpochSlots:   7,
			FreqExponent: 1,
			Profile:      power.Xeon(),
			Predictor:    lms,
			Strategy:     digestStrategies(t)["manager"](),
			Seed:         2,
		}
	}
	victim, err := NewLiveRunner(mk())
	if err != nil {
		t.Fatal(err)
	}
	const cutSlot = 4 * 7
	recs, jobIdx := driveLive(t, victim, tr.Utilization, jobs, 0, 0, cutSlot)
	st, err := victim.State()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreLiveRunner(mk(), st)
	if err != nil {
		t.Fatal(err)
	}
	tail, _ := driveLive(t, restored, tr.Utilization, jobs, cutSlot, jobIdx, tr.Len())
	rec, closed, rep, err := restored.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !closed {
		t.Fatal("short final epoch not closed")
	}
	rep.Epochs = append(append(recs, tail...), rec)
	if got := reportDigest(rep); got != want {
		t.Errorf("digest %#016x, want %#016x", got, want)
	}
}
