package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sleepscale/internal/core"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
	"sleepscale/internal/strategy"
)

// shortWorkloads are the four workloads at lengths that keep the smoke test
// to a few seconds under -race.
func shortWorkloads() []benchWorkload {
	return []benchWorkload{
		daemonSS(60),
		daemonIngest(60),
		fleetSS(4, 60),
		fleetRoute(40, 40),
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the program: the
// same workloads, and the same metric names and units in the same roles.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name())
	}
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program %v", names, want)
		}
	}
	check := func(role string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", role, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)",
					role, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs every workload at a short length through set-up, an
// untraced and a traced pass, and the aggregation, and checks that every
// metric BENCHMARK.json names is reported, no epoch fails, set-up is
// deterministic, and tracing leaves the outputs bit-identical.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range shortWorkloads() {
		t.Run(w.name(), func(t *testing.T) {
			dir := t.TempDir()
			m, err := w.setup(dir, 7)
			if err != nil {
				t.Fatal(err)
			}
			if m.Digest, err = digestFile(filepath.Join(dir, m.Input)); err != nil {
				t.Fatal(err)
			}
			again, err := w.setup(dir, 7)
			if err != nil {
				t.Fatal(err)
			}
			if again.Digest, err = digestFile(filepath.Join(dir, again.Input)); err != nil {
				t.Fatal(err)
			}
			if again != m {
				t.Fatalf("set-up with one seed differs: %+v then %+v", m, again)
			}
			spans := filepath.Join(dir, "spans.jsonl")
			var passes []passResult
			for _, traced := range []bool{false, true} {
				p, err := pass(w, dir, m, traced, spans)
				if err != nil {
					t.Fatal(err)
				}
				if p.Failed != 0 || len(p.Problems) > 0 {
					t.Fatalf("traced=%v: %d of %d epochs failed: %v", traced, p.Failed, p.Epochs, p.Problems)
				}
				passes = append(passes, p)
			}
			if passes[0].Digest != passes[1].Digest {
				t.Errorf("tracing changed the output digest: %s untraced, %s traced", passes[0].Digest, passes[1].Digest)
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("traced pass wrote no spans: %v", err)
			}

			e2e := aggregate(w.name(), m, []float64{1}, passes[:1], false, nil)
			layers := aggregate(w.name(), m, []float64{1}, passes, true, nil)
			for _, r := range []result{e2e, layers} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("correct=%v, %d failed of %d attempted", r.Correct, r.Failed, r.Attempted)
				}
			}
			for _, mt := range b.EndToEnd {
				if _, ok := e2e.Metrics[mt.Name]; !ok {
					t.Errorf("end-to-end metric %s not reported", mt.Name)
				}
			}
			for _, mt := range b.PerLayer {
				if _, ok := layers.Metrics[mt.Name]; !ok {
					t.Errorf("per-layer metric %s not reported", mt.Name)
				}
			}
			if len(e2e.Metrics) != len(b.EndToEnd) || len(layers.Metrics) != len(b.PerLayer) {
				t.Errorf("reported %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
					len(e2e.Metrics), len(layers.Metrics), len(b.EndToEnd), len(b.PerLayer))
			}
		})
	}
}

// TestSameSeedSameDigest runs a short workload twice from separately
// generated inputs with one seed: the outputs must agree bit for bit.
func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range []benchWorkload{daemonSS(60), fleetRoute(40, 40)} {
		var digests []string
		for i := 0; i < 2; i++ {
			dir := t.TempDir()
			m, err := w.setup(dir, 11)
			if err != nil {
				t.Fatal(err)
			}
			p, err := pass(w, dir, m, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if p.Failed != 0 {
				t.Fatalf("%s: %v", w.name(), p.Problems)
			}
			digests = append(digests, p.Digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: same seed, digests %s and %s", w.name(), digests[0], digests[1])
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {91, 10}, {10, 1}, {0, 1}, {100, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

// TestTenBeyondP95 pins the rule behind the epoch-count floor: the p95 of n
// samples has at least ten samples beyond it from n = 200 on.
func TestTenBeyondP95(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{0, 0}, {20, 1}, {199, 9}, {200, 10}, {219, 10}, {220, 11}} {
		if got := beyond(tc.n, 95); got != tc.want {
			t.Errorf("beyond(%d, 95) = %d, want %d", tc.n, got, tc.want)
		}
	}
	for _, w := range workloads() {
		var epochs int
		switch l := w.(type) {
		case daemonLoad:
			epochs = l.slots / epochSlots
		case fleetLoad:
			epochs = l.slots / l.epochT
		}
		if beyond(epochs-1, 95) < 10 {
			t.Errorf("%s: %d epochs give %d gaps beyond the p95", w.name(), epochs, beyond(epochs-1, 95))
		}
	}
}

// TestTracedPredictorCheckpoints checks that a live runner whose predictor
// is wrapped for tracing can still checkpoint, and restores into a wrapped
// predictor that continues exactly as the original.
func TestTracedPredictorCheckpoints(t *testing.T) {
	newCfg := func(rec *recorder) core.LiveConfig {
		lms, err := predict.NewLMS(lmsOrder, lmsStep)
		if err != nil {
			t.Fatal(err)
		}
		strat, err := strategy.NewRaceToHalt(power.DeepSleep)
		if err != nil {
			t.Fatal(err)
		}
		return core.LiveConfig{SlotSeconds: 1, EpochSlots: 2, FreqExponent: 1, Profile: power.Xeon(),
			Predictor: &tracedPredictor{Predictor: lms, rec: rec}, Strategy: strat, Seed: 1}
	}
	rec := &recorder{traced: true}
	rec.start("serve")
	cfg := newCfg(rec)
	r, err := core.NewLiveRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rhos := []float64{0.2, 0.3, 0.25, 0.4, 0.1, 0.35}
	for i, rho := range rhos[:4] {
		if err := r.OfferJob(queue.Job{Arrival: float64(i) + 0.5, Size: 0.1}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.OfferSlot(rho); err != nil {
			t.Fatal(err)
		}
	}
	st, err := r.State()
	if err != nil {
		t.Fatalf("state through the traced predictor: %v", err)
	}
	restored, err := core.RestoreLiveRunner(newCfg(rec), st)
	if err != nil {
		t.Fatalf("restore into a traced predictor: %v", err)
	}
	if got, want := restored.Epoch(), r.Epoch(); got != want {
		t.Fatalf("restored at epoch %d, want %d", got, want)
	}
	for _, rho := range rhos[4:] {
		a, ca, err := r.OfferSlot(rho)
		if err != nil {
			t.Fatal(err)
		}
		b, cb, err := restored.OfferSlot(rho)
		if err != nil {
			t.Fatal(err)
		}
		if ca != cb || a.Predicted != b.Predicted {
			t.Fatalf("restored runner diverged: predicted %v (closed %v), original %v (closed %v)",
				b.Predicted, cb, a.Predicted, ca)
		}
	}
	if rec.layers()["predict"] == nil {
		t.Error("traced predictor recorded no spans")
	}
}

// TestRescale checks that a pass's host times, and only those, are taken to
// the reference speed, and that the raw wall is kept for the report.
func TestRescale(t *testing.T) {
	p := passResult{WallS: 2, GapsMS: []float64{1, 3},
		Layers: map[string]float64{"strategy.decide_ms": 4, "strategy.decide_p50_us": 8, "strategy.decide_calls": 5, "runtime.alloc_mb": 6}}
	p.rescale(0.1, 0.3) // the kernel took 0.2 s on average: half the reference speed
	want := map[string][2]float64{
		"wall": {p.WallS, 1}, "raw wall": {p.rawWallS, 2}, "kernel": {p.refS, 0.2},
		"gap 0": {p.GapsMS[0], 0.5}, "gap 1": {p.GapsMS[1], 1.5},
		"decide_ms": {p.Layers["strategy.decide_ms"], 2}, "decide_p50_us": {p.Layers["strategy.decide_p50_us"], 4},
		"decide_calls": {p.Layers["strategy.decide_calls"], 5}, "alloc_mb": {p.Layers["runtime.alloc_mb"], 6},
	}
	for name, v := range want {
		if !closeTo(v[0], v[1]) {
			t.Errorf("%s = %g, want %g", name, v[0], v[1])
		}
	}
}

func TestRunRejectsTraceValue(t *testing.T) {
	if err := run(options{workload: "daemon-ss", trace: 2}, nil); err == nil {
		t.Error("-trace 2 accepted")
	}
	if err := run(options{workload: "nope"}, nil); err == nil {
		t.Error("unknown workload accepted")
	}
}
