package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sleepscale"
)

// farmEpochLog runs a small 3-server farm under the shared-mode fleet
// coordinator and writes its per-epoch records to a column file, one
// WriteEpochLog call (= one block) per epoch so footer skipping is
// observable. Returns the path and the report.
func farmEpochLog(t *testing.T) (string, *sleepscale.FleetReport) {
	t.Helper()
	st, err := sleepscale.NewIdealizedStats(sleepscale.DNS())
	if err != nil {
		t.Fatal(err)
	}
	util := make([]float64, 12)
	for i := range util {
		util[i] = 0.2 + 0.05*float64(i%4)
	}
	tr := &sleepscale.Trace{Name: "colq-test", SlotSeconds: 60, Utilization: util}
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	coord, err := sleepscale.NewFleetCoordinator(sleepscale.FleetConfig{
		Servers:      3,
		FreqExponent: sleepscale.DNS().FreqExponent,
		Profile:      sleepscale.Xeon(),
		Trace:        tr,
		EpochSlots:   3,
		Predictor:    sleepscale.NewNaivePredictor(),
		Strategy:     sleepscale.NewStaticStrategy(pol, "static"),
		Seed:         1,
		Dispatcher:   sleepscale.JSQ{},
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sleepscale.NewTraceSource(st, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 4 {
		t.Fatalf("run produced %d epochs, want 4", len(rep.Epochs))
	}
	path := filepath.Join(t.TempDir(), "epochs.col")
	for i := range rep.Epochs {
		if err := sleepscale.WriteEpochLog(path, rep.Epochs[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	return path, rep
}

// TestPerEpochMeanEnergy is the headline use case: colq answers a per-epoch
// mean-energy group-by over a recorded farm run, matching the report.
func TestPerEpochMeanEnergy(t *testing.T) {
	path, rep := farmEpochLog(t)
	var out bytes.Buffer
	if err := run([]string{"-f", path, "-op", "mean", "-col", "energy", "-group-by", "epoch"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+len(rep.Epochs) {
		t.Fatalf("got %d lines:\n%s", len(lines), out.String())
	}
	for i, rec := range rep.Epochs {
		fields := strings.Fields(lines[1+i])
		if len(fields) != 3 {
			t.Fatalf("line %q", lines[1+i])
		}
		if fields[0] != strconv.Itoa(rec.Index) {
			t.Fatalf("row %d keyed %q, want epoch %d", i, fields[0], rec.Index)
		}
		got, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		// One row per epoch, so the mean is the record's energy; %g prints
		// shortest-round-trip, so the parse is bit-exact.
		if math.Float64bits(got) != math.Float64bits(rec.Energy) {
			t.Fatalf("epoch %d mean energy %v, want %v", rec.Index, got, rec.Energy)
		}
		if fields[2] != "1" {
			t.Fatalf("epoch %d row count %q, want 1", rec.Index, fields[2])
		}
	}
}

// TestWhereSkipsBlocks pins the CLI's filter path to footer skipping: each
// epoch is its own block, so an equality filter scans exactly one.
func TestWhereSkipsBlocks(t *testing.T) {
	path, rep := farmEpochLog(t)
	var out bytes.Buffer
	err := run([]string{"-f", path, "-op", "sum", "-col", "energy", "-where", "epoch=2", "-stats"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	want := "blocks: 1 scanned, 3 skipped by footer"
	if !strings.Contains(out.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, out.String())
	}
	fields := strings.Fields(strings.Split(out.String(), "\n")[0])
	got, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		t.Fatalf("output %q: %v", out.String(), err)
	}
	if math.Float64bits(got) != math.Float64bits(rep.Epochs[2].Energy) {
		t.Fatalf("sum over epoch 2 = %v, want %v", got, rep.Epochs[2].Energy)
	}
}

func TestDescribe(t *testing.T) {
	path, _ := farmEpochLog(t)
	var out bytes.Buffer
	if err := run([]string{"-f", path, "-describe"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"epochs, 4 rows in 4 blocks", "energy", "p95_delay", "dictionary:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("describe output missing %q:\n%s", want, s)
		}
	}
}

func TestParseWhere(t *testing.T) {
	fs, err := parseWhere(" epoch>=2 , epoch<=5 ,plan=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("parsed %d filters, want 2 (range clauses merged)", len(fs))
	}
	if fs[0].Col != "epoch" || fs[0].Lo != 2 || fs[0].Hi != 5 {
		t.Fatalf("epoch filter = %+v", fs[0])
	}
	if fs[1].Col != "plan" || fs[1].Lo != 1 || fs[1].Hi != 1 {
		t.Fatalf("plan filter = %+v", fs[1])
	}
	for _, bad := range []string{"epoch", "epoch>two", "epoch=x", ">=3"} {
		if _, err := parseWhere(bad); err == nil && bad != ">=3" {
			t.Errorf("parseWhere(%q) accepted", bad)
		}
	}
}

func TestRunErrors(t *testing.T) {
	path, _ := farmEpochLog(t)
	var out bytes.Buffer
	for _, args := range [][]string{
		{},                                   // no file
		{"-f", path},                         // no column
		{"-f", path, "-col", "nope"},         // unknown column
		{"-f", path + "x", "-col", "energy"}, // missing file
		{"-f", path, "-col", "energy", "-op", "median"}, // unknown op
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
