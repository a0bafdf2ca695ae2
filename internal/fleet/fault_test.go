package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sleepscale/internal/core"
	"sleepscale/internal/farm"
	"sleepscale/internal/fault"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
	"sleepscale/internal/stream"
	"sleepscale/internal/trace"
)

func emptySchedule(t *testing.T) *fault.Schedule {
	t.Helper()
	s, err := fault.NewSchedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSchedule(t *testing.T, events []fault.Event) *fault.Schedule {
	t.Helper()
	s, err := fault.NewSchedule(events)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkConservation asserts the exact fault ledger: every offered job is
// accounted once, and completed jobs are exactly the retained engine
// responses.
func checkConservation(t *testing.T, tag string, rep *Report) {
	t.Helper()
	if rep.Offered != rep.Completed+rep.Requeued+rep.Dropped {
		t.Fatalf("%s: conservation broken: offered %d != completed %d + requeued %d + dropped %d",
			tag, rep.Offered, rep.Completed, rep.Requeued, rep.Dropped)
	}
	if rep.Jobs != rep.Completed {
		t.Fatalf("%s: engine responses %d != completed %d", tag, rep.Jobs, rep.Completed)
	}
}

// checkEnergyTelescope asserts the per-epoch energy/time deltas sum exactly
// to the whole-run aggregates — crash refunds and down-time gaps included.
func checkEnergyTelescope(t *testing.T, tag string, rep *Report) {
	t.Helper()
	var energy, busy float64
	for i := range rep.Epochs {
		energy += rep.Epochs[i].Energy
		busy += rep.Epochs[i].BusyTime
	}
	var wantE, wantB float64
	for s := range rep.PerServer {
		wantE += rep.PerServer[s].Energy
		wantB += rep.PerServer[s].BusyTime
	}
	if energy != wantE {
		t.Fatalf("%s: epoch energy deltas sum to %g, per-server totals %g", tag, energy, wantE)
	}
	if busy != wantB {
		t.Fatalf("%s: epoch busy deltas sum to %g, per-server totals %g", tag, busy, wantB)
	}
}

// fleetDigest extends runDigest over the fleet half of a report — every
// fleet epoch field, every per-server summary and the fleet figures of
// merit — so a whole coordinated run compares bit for bit through one
// constant.
func fleetDigest(rep *Report) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(x float64) { u(math.Float64bits(x)) }
	u(runDigest(&rep.RunReport))
	u(uint64(len(rep.FleetEpochs)))
	for _, e := range rep.FleetEpochs {
		for _, v := range []int{e.Index, e.Active, e.Parked, e.Shallow, e.Unparked,
			e.Down, e.Crashes, e.Repairs, e.Lost, e.Dropped} {
			u(uint64(v))
		}
		f(e.MeanFrequency)
	}
	u(uint64(len(rep.PerServer)))
	for _, sum := range rep.PerServer {
		u(uint64(sum.Jobs))
		u(uint64(sum.Wakes))
		for _, x := range []float64{sum.MeanResponse, sum.ResponseP95, sum.ResponseP99,
			sum.AvgPower, sum.Energy, sum.Duration, sum.BusyTime, sum.WakeTime,
			sum.IdleTime, sum.MeasuredUtilization} {
			f(x)
		}
	}
	f(rep.EnergyProportionality)
	f(rep.JobsPerJoule)
	f(rep.PeakPower)
	return h.Sum64()
}

// TestFaultFreeScheduleEquivalence pins the fault-free coordinator across
// dispatchers (the RNG-drawing pd2 and random included), seeds and fleet
// sizes, in shared and per-server+park+quorum modes alike. A run with no
// fault source must reproduce the fleetDigest constants — recorded when the
// coordinator still had a dedicated fault-free serve path, so they prove
// walking an empty timeline changed nothing — with a closed, loss-free
// ledger; and a run given an empty fault schedule must be bit-identical to
// it: every epoch record, fleet epoch, per-server summary and aggregate.
func TestFaultFreeScheduleEquivalence(t *testing.T) {
	tr := flatTrace(12, 0.3)
	cases := []struct {
		k      int
		lambda float64
		disp   func() farm.Dispatcher
		name   string
		digest [2][2]uint64 // [mode][seed]
	}{
		{1, 5, func() farm.Dispatcher { return farm.JSQ{} }, "jsq",
			[2][2]uint64{{0xcedbef4d03580459, 0x2efa366e96bbd4de}, {0xfdb3173c51f615ad, 0x78bd1c28b84e3aa5}}},
		{7, 35, func() farm.Dispatcher { return farm.JSQ{} }, "jsq",
			[2][2]uint64{{0x14bb50268bdd3b27, 0xcc2b61dc225a3ca9}, {0xe31e3d10821d6b5a, 0x8ff63c0b53ccd157}}},
		{7, 35, func() farm.Dispatcher { return &farm.RoundRobin{} }, "rr",
			[2][2]uint64{{0xefb405b29a9e1347, 0xb7fd61a2a6dbc85d}, {0x054bc30c16332d2f, 0x2f82500b63c61bee}}},
		{7, 35, func() farm.Dispatcher { return &farm.LeastWorkLeft{} }, "lwl",
			[2][2]uint64{{0xbe0c994b07133073, 0xcc2b61dc225a3ca9}, {0x72abd4bb8e39f851, 0xf832c400d2bbad0e}}},
		{7, 35, func() farm.Dispatcher { return &farm.PowerOfD{D: 2, Rng: rand.New(rand.NewSource(55))} }, "pd2",
			[2][2]uint64{{0x7269702757037fb8, 0x41f6f667e2bf3c5f}, {0x41f04315ce5ab01d, 0x3ba32ccc1662e75a}}},
		{7, 35, func() farm.Dispatcher { return &farm.Random{Rng: rand.New(rand.NewSource(56))} }, "random",
			[2][2]uint64{{0xbc29d655e36306e0, 0x11e08dc447a77841}, {0x0a006cd2c63eab3e, 0xa2c1391c8b8ba7dd}}},
		{1000, 2000, func() farm.Dispatcher { return farm.JSQ{} }, "jsq",
			[2][2]uint64{{0x02a41fd121584eee, 0x6e1b3b9a02f0efb1}, {0x3b7823d707a42c28, 0x01ce638c13c1f0ff}}},
	}
	modes := []struct {
		name   string
		perSrv bool
		park   bool
		quorum int
	}{
		{"shared", false, false, 0},
		{"persrv-park-quorum", true, true, 1},
	}
	for _, tc := range cases {
		for mi, mode := range modes {
			for si, seed := range []int64{1, 2} {
				jobs := fleetJobs(int(tc.lambda*10), tc.lambda, 5, seed+10)
				mk := func(faults fault.Source) Config {
					cfg := Config{
						Servers:      tc.k,
						FreqExponent: 1,
						Profile:      power.Xeon(),
						Trace:        tr,
						EpochSlots:   4,
						Strategy:     newRngStrategy(),
						Seed:         seed,
						Dispatcher:   tc.disp(),
						PerServer:    mode.perSrv,
						Park:         mode.park,
						Quorum:       mode.quorum,
						Faults:       faults,
						Retry:        fault.RetryPolicy{Budget: 2, Backoff: 0.5},
					}
					if mode.perSrv {
						cfg.NewPredictor = func() predict.Predictor { return predict.NewNaivePrevious() }
					} else {
						cfg.Predictor = predict.NewNaivePrevious()
					}
					return cfg
				}
				tag := tc.name + "/" + mode.name
				plain, err := New(mk(nil))
				if err != nil {
					t.Fatalf("k=%d %s seed=%d new: %v", tc.k, tag, seed, err)
				}
				want, err := plain.Run(stream.Slice(jobs))
				if err != nil {
					t.Fatalf("k=%d %s seed=%d plain run: %v", tc.k, tag, seed, err)
				}
				if d := fleetDigest(want); d != tc.digest[mi][si] {
					t.Errorf("k=%d %s seed=%d: fleet digest %#016x, want %#016x", tc.k, tag, seed, d, tc.digest[mi][si])
				}
				if want.Offered != want.Jobs || want.Completed != want.Jobs ||
					want.Requeued != 0 || want.Dropped != 0 || want.Retries != 0 {
					t.Fatalf("k=%d %s seed=%d fault-free ledger: jobs %d offered %d completed %d requeued %d dropped %d retries %d",
						tc.k, tag, seed, want.Jobs, want.Offered, want.Completed, want.Requeued, want.Dropped, want.Retries)
				}
				faulty, err := New(mk(emptySchedule(t)))
				if err != nil {
					t.Fatalf("k=%d %s seed=%d new faulty: %v", tc.k, tag, seed, err)
				}
				got, err := faulty.Run(stream.Slice(jobs))
				if err != nil {
					t.Fatalf("k=%d %s seed=%d faulty run: %v", tc.k, tag, seed, err)
				}
				if !reflect.DeepEqual(got.RunReport, want.RunReport) {
					t.Fatalf("k=%d %s seed=%d run reports diverge:\n got %+v\nwant %+v",
						tc.k, tag, seed, got.RunReport, want.RunReport)
				}
				if !reflect.DeepEqual(got.FleetEpochs, want.FleetEpochs) {
					t.Fatalf("k=%d %s seed=%d fleet epochs diverge", tc.k, tag, seed)
				}
				if !reflect.DeepEqual(got.PerServer, want.PerServer) {
					t.Fatalf("k=%d %s seed=%d per-server summaries diverge", tc.k, tag, seed)
				}
				if got.EnergyProportionality != want.EnergyProportionality ||
					got.JobsPerJoule != want.JobsPerJoule || got.PeakPower != want.PeakPower {
					t.Fatalf("k=%d %s seed=%d figure-of-merit diverges", tc.k, tag, seed)
				}
				if got.Crashes != 0 || got.Repairs != 0 || got.Dropped != 0 || got.Retries != 0 {
					t.Fatalf("k=%d %s seed=%d spurious fault counters %+v", tc.k, tag, seed, got)
				}
				if got.Offered != got.Completed || got.Requeued != 0 {
					t.Fatalf("k=%d %s seed=%d empty schedule lost jobs: offered %d completed %d requeued %d",
						tc.k, tag, seed, got.Offered, got.Completed, got.Requeued)
				}
			}
		}
	}
}

// chaosConfig is the scripted crash/repair scenario the conservation and
// determinism checks run: six servers, parking, a quorum, per-server
// decisions, crashes at and between epoch boundaries, repairs mid-epoch.
func chaosConfig(disp farm.Dispatcher, faults fault.Source, seed int64) Config {
	return Config{
		Servers:      6,
		FreqExponent: 1,
		Profile:      power.Xeon(),
		Trace:        flatTrace(12, 0.5),
		EpochSlots:   2,
		Strategy:     newRngStrategy(),
		NewPredictor: func() predict.Predictor { return predict.NewNaivePrevious() },
		PerServer:    true,
		Seed:         seed,
		Dispatcher:   disp,
		Quorum:       1,
		Park:         true,
		Retry:        fault.RetryPolicy{Budget: 3, Backoff: 0.25},
		Faults:       faults,
	}
}

func chaosEvents() []fault.Event {
	return []fault.Event{
		{Time: 1.0, Server: 2, Kind: fault.Crash},
		{Time: 2.0, Server: 4, Kind: fault.Crash}, // exactly on an epoch boundary
		{Time: 3.5, Server: 2, Kind: fault.Repair},
		{Time: 5.0, Server: 0, Kind: fault.Crash},
		{Time: 8.0, Server: 4, Kind: fault.Repair}, // boundary again
		{Time: 9.5, Server: 0, Kind: fault.Repair},
	}
}

// TestFaultChaosConservation drives the scripted chaos week over every
// dispatcher: the conservation ledger must close exactly, the per-epoch
// energy deltas must telescope to the run totals through crash refunds, the
// fleet partition must stay consistent every epoch, every epoch that closes
// with no fault events must hold the quorum, and the whole run must be
// deterministic under a fixed seed.
func TestFaultChaosConservation(t *testing.T) {
	disps := []struct {
		name string
		mk   func() farm.Dispatcher
	}{
		{"jsq", func() farm.Dispatcher { return farm.JSQ{} }},
		{"rr", func() farm.Dispatcher { return &farm.RoundRobin{} }},
		{"lwl", func() farm.Dispatcher { return &farm.LeastWorkLeft{} }},
	}
	jobs := fleetJobs(360, 30, 10, 77)
	for _, d := range disps {
		quiet := 0
		run := func() *Report {
			cfg := chaosConfig(d.mk(), mustSchedule(t, chaosEvents()), 5)
			cfg.Observer = func(fe Epoch) {
				if fe.Crashes != 0 || fe.Repairs != 0 {
					return
				}
				quiet++
				if fe.Shallow < min(cfg.Quorum, fe.Active) {
					t.Fatalf("%s: fault-free epoch %d breaks quorum: %+v", d.name, fe.Index, fe)
				}
			}
			coord, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: new: %v", d.name, err)
			}
			rep, err := coord.Run(stream.Slice(jobs))
			if err != nil {
				t.Fatalf("%s: run: %v", d.name, err)
			}
			return rep
		}
		rep := run()
		if quiet == 0 {
			t.Fatalf("%s: every epoch saw a fault event — the quorum check never ran", d.name)
		}
		checkConservation(t, d.name, rep)
		checkEnergyTelescope(t, d.name, rep)
		if rep.Crashes != 3 || rep.Repairs != 3 {
			t.Fatalf("%s: applied %d crashes, %d repairs; want 3 and 3", d.name, rep.Crashes, rep.Repairs)
		}
		if !reflect.DeepEqual(rep.FaultEvents, chaosEvents()) {
			t.Fatalf("%s: fault log %v != schedule", d.name, rep.FaultEvents)
		}
		var lost, dropped int
		for _, fe := range rep.FleetEpochs {
			if fe.Active+fe.Parked+fe.Down != rep.Servers {
				t.Fatalf("%s: epoch %d partition %d active + %d parked + %d down != %d servers",
					d.name, fe.Index, fe.Active, fe.Parked, fe.Down, rep.Servers)
			}
			lost += fe.Lost
			dropped += fe.Dropped
		}
		if lost == 0 {
			t.Fatalf("%s: chaos run lost no jobs — scenario not exercising failover", d.name)
		}
		if dropped != rep.Dropped {
			t.Fatalf("%s: per-epoch drops %d != report %d", d.name, dropped, rep.Dropped)
		}
		if rep.Offered != len(jobsBefore(jobs, 12)) {
			t.Fatalf("%s: offered %d != %d jobs in trace span", d.name, rep.Offered, len(jobsBefore(jobs, 12)))
		}
		// Determinism: a fresh coordinator with the same seed replays the
		// same timeline to the same report, bit for bit.
		again := run()
		if !reflect.DeepEqual(rep, again) {
			t.Fatalf("%s: same seed, different report", d.name)
		}
	}
}

func jobsBefore(jobs []queue.Job, end float64) []queue.Job {
	n := 0
	for n < len(jobs) && jobs[n].Arrival < end {
		n++
	}
	return jobs[:n]
}

// TestFaultRenewalDeterminism runs a seeded MTBF/MTTR renewal process
// through the coordinator: the ledger must still close and two fresh
// coordinators must agree bit for bit.
func TestFaultRenewalDeterminism(t *testing.T) {
	jobs := fleetJobs(360, 30, 10, 99)
	run := func() *Report {
		ren, err := fault.NewRenewal(fault.RenewalConfig{
			Servers: 6, MTBF: 4, MTTR: 1.5, Horizon: 12,
		}, 5)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := New(chaosConfig(farm.JSQ{}, ren, 5))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := coord.Run(stream.Slice(jobs))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	checkConservation(t, "renewal", a)
	checkEnergyTelescope(t, "renewal", a)
	if a.Crashes == 0 {
		t.Fatal("renewal produced no crashes inside the horizon")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different renewal report")
	}
}

// TestFaultOutageExactEnergy pins exact energy accounting through a total
// outage: a single-server fleet crashes mid-run and is repaired three
// seconds later. The fully-down epoch must bill exactly zero energy and
// zero busy time, and with a generous retry budget every job must
// eventually complete.
func TestFaultOutageExactEnergy(t *testing.T) {
	jobs := fleetJobs(36, 3, 5, 21)
	events := []fault.Event{
		{Time: 3.0, Server: 0, Kind: fault.Crash},
		{Time: 6.0, Server: 0, Kind: fault.Repair},
	}
	mk := func(retry fault.RetryPolicy) Config {
		return Config{
			Servers:      1,
			FreqExponent: 1,
			Profile:      power.Xeon(),
			Trace:        flatTrace(12, 0.4),
			EpochSlots:   2,
			Strategy:     &staticStrategy{pol: policy.Policy{Frequency: 1, Plan: policy.NoSleep()}},
			Predictor:    predict.NewNaivePrevious(),
			Seed:         3,
			Dispatcher:   farm.JSQ{},
			Faults:       nil, // set below
			Retry:        retry,
		}
	}

	cfg := mk(fault.RetryPolicy{Budget: 8, Backoff: 0.5})
	cfg.Faults = mustSchedule(t, events)
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "outage", rep)
	checkEnergyTelescope(t, "outage", rep)
	if rep.Dropped != 0 || rep.Requeued != 0 {
		t.Fatalf("generous budget still dropped %d, requeued %d", rep.Dropped, rep.Requeued)
	}
	if rep.Offered != rep.Completed {
		t.Fatalf("offered %d != completed %d", rep.Offered, rep.Completed)
	}
	if rep.Retries == 0 {
		t.Fatal("outage caused no retries")
	}
	// Epoch [4,6) sits entirely inside the outage: the engine is down the
	// whole time and no job can be dispatched, so its deltas are exactly 0.
	deadEpoch := rep.Epochs[2]
	if deadEpoch.Energy != 0 || deadEpoch.BusyTime != 0 || deadEpoch.Jobs != 0 {
		t.Fatalf("outage epoch billed energy %g, busy %g, jobs %d; want exactly zero",
			deadEpoch.Energy, deadEpoch.BusyTime, deadEpoch.Jobs)
	}
	if rep.FleetEpochs[2].Down != 1 || rep.FleetEpochs[2].Active != 0 {
		t.Fatalf("outage epoch partition %+v", rep.FleetEpochs[2])
	}

	// Budget 0: every loss is a drop, nothing is requeued, and the ledger
	// still closes.
	cfg0 := mk(fault.RetryPolicy{})
	cfg0.Faults = mustSchedule(t, events)
	coord0, err := New(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	rep0, err := coord0.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "outage-budget0", rep0)
	if rep0.Retries != 0 || rep0.Requeued != 0 {
		t.Fatalf("zero budget retried %d, requeued %d", rep0.Retries, rep0.Requeued)
	}
	if rep0.Dropped == 0 {
		t.Fatal("zero budget dropped nothing through a three-second outage")
	}
}

// TestQuorumWiderThanHealthy is the satellite edge case: a quorum window
// larger than the surviving fleet. Three of four servers crash in the first
// epoch — the emergency unpark keeps the last healthy server routing, and
// from the next boundary the quorum degrades to capping everything healthy.
func TestQuorumWiderThanHealthy(t *testing.T) {
	jobs := fleetJobs(240, 20, 10, 13)
	events := []fault.Event{
		{Time: 1.0, Server: 0, Kind: fault.Crash},
		{Time: 1.2, Server: 1, Kind: fault.Crash},
		{Time: 1.4, Server: 2, Kind: fault.Crash},
	}
	coord, err := New(Config{
		Servers:      4,
		FreqExponent: 1,
		Profile:      power.Xeon(),
		Trace:        flatTrace(12, 0.5),
		EpochSlots:   2,
		Strategy:     newRngStrategy(),
		Predictor:    predict.NewNaivePrevious(),
		Seed:         7,
		Dispatcher:   farm.JSQ{},
		Quorum:       3,
		Park:         true,
		Retry:        fault.RetryPolicy{Budget: 4, Backoff: 0.2},
		Faults:       mustSchedule(t, events),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "quorum-wide", rep)
	checkEnergyTelescope(t, "quorum-wide", rep)
	if rep.Crashes != 3 {
		t.Fatalf("applied %d crashes, want 3", rep.Crashes)
	}
	if rep.FleetEpochs[0].Unparked == 0 {
		t.Fatal("crash of the whole active set did not emergency-unpark the survivor")
	}
	for _, fe := range rep.FleetEpochs[1:] {
		if fe.Down != 3 || fe.Active != 1 || fe.Parked != 0 {
			t.Fatalf("epoch %d partition %+v; want 1 active / 0 parked / 3 down", fe.Index, fe)
		}
		// min(quorum, active) = 1: the lone survivor must stay shallow.
		if fe.Shallow != 1 {
			t.Fatalf("epoch %d: survivor not quorum-capped (%+v)", fe.Index, fe)
		}
	}
	if rep.PerServer[3].Jobs == 0 {
		t.Fatal("survivor served nothing")
	}
}

// TestQuorumDutyServerCrashMidEpoch pins where the quorum invariant holds
// under faults. Server 0 opens the run in the one-server duty window and
// crashes mid-epoch: the window is re-formed only when the next epoch opens,
// so the crash epoch's record falls below min(Quorum, Active), and the next
// epoch — no fault events — is back at quorum.
func TestQuorumDutyServerCrashMidEpoch(t *testing.T) {
	const q = 1
	var coord *Coordinator
	coord, err := New(Config{
		Servers:      4,
		FreqExponent: 1,
		Profile:      power.Xeon(),
		Trace:        flatTrace(8, 0.3),
		EpochSlots:   2,
		Strategy:     &staticStrategy{pol: policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeeperSleep)}},
		Predictor:    predict.NewNaivePrevious(),
		Seed:         1,
		Dispatcher:   farm.JSQ{},
		Quorum:       q,
		Retry:        fault.RetryPolicy{Budget: 2, Backoff: 0.1},
		Faults:       mustSchedule(t, []fault.Event{{Time: 1.0, Server: 0, Kind: fault.Crash}}),
		Observer: func(fe Epoch) {
			if fe.Index == 0 {
				if p, _ := coord.Installed(0); p.Plan.DeepestState().CPU > power.C1 {
					t.Fatalf("server 0 is not in the opening duty window: %v", p)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(fleetJobs(120, 15, 10, 3)))
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "duty-crash", rep)
	crash, next := rep.FleetEpochs[0], rep.FleetEpochs[1]
	if crash.Crashes != 1 || crash.Active != 3 {
		t.Fatalf("crash epoch %+v: want one crash and 3 active servers", crash)
	}
	if crash.Shallow >= min(q, crash.Active) {
		t.Fatalf("crash epoch %+v still at quorum: the duty-window server's crash must show", crash)
	}
	if next.Crashes != 0 || next.Repairs != 0 {
		t.Fatalf("epoch after the crash saw fault events: %+v", next)
	}
	if next.Shallow < min(q, next.Active) {
		t.Fatalf("epoch after the crash %+v is not back at quorum", next)
	}
}

// TestParkCrossesCrashBoundary is the other satellite edge case: demand
// rises so the park target sweeps upward across a server that crashed —
// parked — in the same stretch. The unpark wave must skip the down server,
// and its mid-epoch repair must rejoin it cold without disturbing the
// partition accounting.
func TestParkCrossesCrashBoundary(t *testing.T) {
	tr := &trace.Trace{Name: "step", SlotSeconds: 1, Utilization: make([]float64, 12)}
	for i := range tr.Utilization {
		if i < 6 {
			tr.Utilization[i] = 0.05
		} else {
			tr.Utilization[i] = 0.9
		}
	}
	// Sparse arrivals while demand is low, dense after the step.
	var jobs []queue.Job
	for a := 0.5; a < 6; a += 1.0 {
		jobs = append(jobs, queue.Job{Arrival: a, Size: 0.2})
	}
	for a := 6.01; a < 12; a += 0.05 {
		jobs = append(jobs, queue.Job{Arrival: a, Size: 0.3})
	}
	events := []fault.Event{
		{Time: 5.0, Server: 1, Kind: fault.Crash},   // parked at crash time
		{Time: 11.5, Server: 1, Kind: fault.Repair}, // mid-final-epoch rejoin
	}
	run := func() *Report {
		coord, err := New(Config{
			Servers:       6,
			FreqExponent:  1,
			Profile:       power.Xeon(),
			Trace:         tr,
			EpochSlots:    2,
			Strategy:      &staticStrategy{pol: policy.Policy{Frequency: 1, Plan: policy.SingleState(power.Sleep)}},
			Predictor:     predict.NewNaivePrevious(),
			Seed:          11,
			Dispatcher:    farm.JSQ{},
			Park:          true,
			ParkTargetRho: 0.3,
			Retry:         fault.RetryPolicy{Budget: 4, Backoff: 0.2},
			Faults:        mustSchedule(t, events),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := coord.Run(stream.Slice(jobs))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	checkConservation(t, "park-crash", rep)
	checkEnergyTelescope(t, "park-crash", rep)
	for _, fe := range rep.FleetEpochs {
		if fe.Active+fe.Parked+fe.Down != rep.Servers {
			t.Fatalf("epoch %d partition %+v does not cover the fleet", fe.Index, fe)
		}
	}
	// The crash epoch ([4,6)) sees the parked server go down; the unpark
	// wave in the high-demand half must grow the active set around it.
	if fe := rep.FleetEpochs[2]; fe.Crashes != 1 || fe.Down != 1 {
		t.Fatalf("crash epoch partition %+v", fe)
	}
	grew := false
	for _, fe := range rep.FleetEpochs[3:] {
		if fe.Down == 1 && fe.Active > 2 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("park target never crossed the down server while it was out")
	}
	if fe := rep.FleetEpochs[5]; fe.Repairs != 1 {
		t.Fatalf("repair epoch %+v did not record the rejoin", fe)
	}
	if rep.PerServer[1].Wakes == 0 {
		t.Fatal("repaired server never paid a wake")
	}
	if again := run(); !reflect.DeepEqual(rep, again) {
		t.Fatal("same seed, different report")
	}
}

// cycleStrategy hands out its policies in call order, so consecutive
// decisions differ and a plan resolved over a live one changes billing.
type cycleStrategy struct {
	pols []policy.Policy
	n    int
}

func (s *cycleStrategy) Name() string { return "cycle-test" }
func (s *cycleStrategy) Decide(core.DecideInput) (policy.Policy, error) {
	p := s.pols[s.n%len(s.pols)]
	s.n++
	return p, nil
}

// TestMissedInstallKeepsLivePhases pins the phase scratch behind a server
// that misses an install. The single server is installed at epoch 1
// (t = 2), crashes at t = 3 and is still down when epoch 2 opens (t = 4),
// so it misses that install; it rejoins at t = 4.5 under epoch 1's C6S3
// plan, idle from t = 5.5 once its 1 s wake is paid. Epoch 3's install
// (t = 6) must resolve into the buffer the engine is not reading, because
// its SetConfigAt first bills that idle under epoch 1's phases. The server's totals must match an
// independent engine replay of the same calls in which every install
// resolves into a fresh slice.
func TestMissedInstallKeepsLivePhases(t *testing.T) {
	pols := []policy.Policy{
		{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)},
		{Frequency: 1, Plan: policy.SingleState(power.DeeperSleep)},
		{Frequency: 0.8, Plan: policy.SingleState(power.OperatingIdle)},
		{Frequency: 0.6, Plan: policy.SingleState(power.Sleep)},
	}
	jobs := []queue.Job{
		{Arrival: 0.5, Size: 0.2}, {Arrival: 1.0, Size: 0.2},
		{Arrival: 6.5, Size: 0.2}, {Arrival: 7.0, Size: 0.2},
		{Arrival: 9.5, Size: 0.2}, {Arrival: 11.0, Size: 0.2},
	}
	profile := power.Xeon()
	strat := &cycleStrategy{pols: pols}
	coord, err := New(Config{
		Servers:      1,
		FreqExponent: 1,
		Profile:      profile,
		Trace:        flatTrace(12, 0.2),
		EpochSlots:   2,
		Strategy:     strat,
		Predictor:    predict.NewNaivePrevious(),
		Seed:         1,
		Dispatcher:   farm.JSQ{},
		Faults: mustSchedule(t, []fault.Event{
			{Time: 3, Server: 0, Kind: fault.Crash},
			{Time: 4.5, Server: 0, Kind: fault.Repair},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "missed-install", rep)
	if rep.Completed != len(jobs) || rep.Retries != 0 {
		t.Fatalf("completed %d, retried %d; want all %d served, none in flight at the crash",
			rep.Completed, rep.Retries, len(jobs))
	}
	if rep.FleetEpochs[1].Crashes != 1 || rep.FleetEpochs[2].Repairs != 1 {
		t.Fatalf("crash in %+v, repair in %+v; want epochs 1 and 2", rep.FleetEpochs[1], rep.FleetEpochs[2])
	}
	// Down at epoch 2's open, the server got no decision there.
	if strat.n != 5 {
		t.Fatalf("strategy decided %d times, want 5 (epoch 2 skipped)", strat.n)
	}

	// The replay starts under the fleet's park configuration. The down
	// epoch 2 decides nothing, so epochs 0, 1, 3, 4 and 5 install the
	// strategy's policies in call order.
	resolve := func(p policy.Policy) queue.Config {
		t.Helper()
		qcfg, err := p.Config(profile, 1)
		if err != nil {
			t.Fatal(err)
		}
		return qcfg
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	eng, err := queue.NewEngine(resolve(policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeeperSleep)}), 0)
	must(err)
	serve := func(js ...queue.Job) {
		t.Helper()
		for _, j := range js {
			_, err := eng.Process(j)
			must(err)
		}
	}
	must(eng.SetConfigAt(0, resolve(pols[0])))
	serve(jobs[0], jobs[1])
	must(eng.SetConfigAt(2, resolve(pols[1])))
	must(eng.CrashAt(3, 0))
	must(eng.RejoinAt(4.5))
	must(eng.SetConfigAt(6, resolve(pols[2])))
	serve(jobs[2], jobs[3])
	must(eng.SetConfigAt(8, resolve(pols[3])))
	serve(jobs[4])
	must(eng.SetConfigAt(10, resolve(pols[0])))
	serve(jobs[5])
	want := eng.FinishSummary(12)

	got := rep.PerServer[0]
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"energy", got.Energy, want.Energy},
		{"busy", got.BusyTime, want.BusyTime},
		{"wake", got.WakeTime, want.WakeTime},
		{"idle", got.IdleTime, want.IdleTime},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s: fleet %v, replay %v", c.name, c.got, c.want)
		}
	}
}

// TestFaultConfigValidation covers the fault-mode guards: a bad retry
// policy is rejected at construction, and an event addressing a server
// outside the fleet fails the run at its application instant.
func TestFaultConfigValidation(t *testing.T) {
	cfg := chaosConfig(farm.JSQ{}, nil, 1)
	cfg.Retry = fault.RetryPolicy{Budget: -1}
	if _, err := New(cfg); err == nil {
		t.Fatal("negative retry budget accepted")
	}
	cfg = chaosConfig(farm.JSQ{}, mustSchedule(t, []fault.Event{
		{Time: 1, Server: 99, Kind: fault.Crash},
	}), 1)
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(stream.Slice(fleetJobs(60, 30, 10, 1))); err == nil {
		t.Fatal("out-of-fleet fault event accepted")
	}
}
