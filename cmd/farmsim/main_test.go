package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sleepscale"
	"sleepscale/internal/colstore"
)

// fileFNV is the FNV-64a of a file's bytes.
func fileFNV(t *testing.T, path string) uint64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("1, 2,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 16 {
		t.Errorf("parseSizes = %v", got)
	}
	for _, bad := range []string{"", "0", "-1", "a", "1,,2"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) accepted", bad)
		}
	}
}

func TestBuildStream(t *testing.T) {
	src, err := buildStream(4, 5, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sleepscale.CollectSource(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A Poisson(4/s) stream over a 250 s horizon: ≈1000 arrivals, sorted.
	if len(jobs) < 800 || len(jobs) > 1200 {
		t.Errorf("generated %d jobs, want ≈1000", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			t.Fatal("stream not sorted by arrival")
		}
	}
	if _, err := buildStream(-1, 5, 1000, 1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestBuildDispatcher(t *testing.T) {
	for _, name := range []string{"jsq", "rr", "random", "pd2", "pd3", "lwl"} {
		if _, err := buildDispatcher(name, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	d, err := buildDispatcher("pd4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if pd, ok := d.(*sleepscale.PowerOfD); !ok || pd.D != 4 {
		t.Errorf("pd4 built %#v", d)
	}
	for _, bad := range []string{"nope", "pd", "pd0", "pd-1", "pdx"} {
		if _, err := buildDispatcher(bad, 1); err == nil {
			t.Errorf("dispatcher %q accepted", bad)
		}
	}
}

// TestRunTraceFarmWritesEpochLog drives the -trace path end to end on a tiny
// CSV trace and checks the appended columnar log covers both farm sizes.
func TestRunTraceFarmWritesEpochLog(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	var buf strings.Builder
	buf.WriteString("slot,utilization\n")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&buf, "%d,0.3\n", i)
	}
	if err := os.WriteFile(csvPath, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "epochs.col")
	if err := runTraceFarm([]int{1, 2}, csvPath, 3, "jsq", 1, logPath, fleetFlags{}); err != nil {
		t.Fatal(err)
	}
	// The log's bytes are pinned, so no change to the shared epoch driver can
	// silently change what -trace writes.
	if got := fileFNV(t, logPath); got != 0xbe6c8e967e358602 {
		t.Fatalf("epoch log FNV-64a %#016x, want 0xbe6c8e967e358602", got)
	}
	r, err := sleepscale.OpenCol(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// 6 slots at T=3 → 2 epochs per run, two runs appended.
	if r.Rows() != 4 {
		t.Fatalf("epoch log has %d rows, want 4", r.Rows())
	}
	res, err := colstore.Query{Col: "energy", Op: colstore.Mean, GroupBy: "epoch"}.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 || res.Groups[0].Count != 2 {
		t.Fatalf("per-epoch groups = %+v", res.Groups)
	}
}

// TestRunTraceFarmCoordinated drives -coordinate -quorum -park end to end
// and checks the fleet epoch-log schema lands in the columnar output.
func TestRunTraceFarmCoordinated(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	var buf strings.Builder
	buf.WriteString("slot,utilization\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&buf, "%d,0.3\n", i)
	}
	if err := os.WriteFile(csvPath, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "fleet.col")
	fc := fleetFlags{coordinate: true, quorum: 2, park: true}
	if err := runTraceFarm([]int{4}, csvPath, 3, "jsq", 1, logPath, fc); err != nil {
		t.Fatal(err)
	}
	if got := fileFNV(t, logPath); got != 0xe943a875ff0fa1fb {
		t.Fatalf("fleet log FNV-64a %#016x, want 0xe943a875ff0fa1fb", got)
	}
	r, err := sleepscale.OpenCol(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Schema().Kind != colstore.KindFleetEpochs {
		t.Fatalf("log kind = %d, want fleet epochs (%d)", r.Schema().Kind, colstore.KindFleetEpochs)
	}
	// 12 slots at T=3 → 4 epochs; every epoch honors the quorum floor.
	if r.Rows() != 4 {
		t.Fatalf("fleet log has %d rows, want 4", r.Rows())
	}
	res, err := colstore.Query{Col: "shallow", Op: colstore.Min}.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Value < 2 {
		t.Fatalf("quorum violated in log: min shallow = %g, want ≥ 2", res.Groups[0].Value)
	}
}

// TestRunTraceFarmRejectsBadFleetFlags pins the flag validation: a quorum
// larger than the smallest fleet, quorum/park or -mtbf without -coordinate,
// and a negative -mtbf or -mttr, which must be rejected rather than read as
// "no fault injection".
func TestRunTraceFarmRejectsBadFleetFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		fc   fleetFlags
		want string
	}{
		{"quorum 5 over 4 servers", fleetFlags{coordinate: true, quorum: 5}, "exceeds fleet size"},
		{"quorum without coordinate", fleetFlags{quorum: 2}, "-coordinate"},
		{"negative mtbf", fleetFlags{coordinate: true, mtbf: -5}, "must both be positive"},
		{"negative mttr", fleetFlags{coordinate: true, mttr: -5}, "must both be positive"},
		{"negative mtbf without coordinate", fleetFlags{mtbf: -5}, "-coordinate"},
	} {
		err := runTraceFarm([]int{4}, "email-store", 3, "jsq", 1, "", tc.fc)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestLoadFarmTraceSniffs(t *testing.T) {
	dir := t.TempDir()
	colPath := filepath.Join(dir, "t.col")
	if err := sleepscale.WriteColTrace(sleepscale.EmailStoreTrace(1, 2), colPath); err != nil {
		t.Fatal(err)
	}
	tr, err := loadFarmTrace(colPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1440 {
		t.Fatalf("columnar day has %d slots, want 1440", tr.Len())
	}
	if _, err := loadFarmTrace(filepath.Join(dir, "missing"), 1); err == nil {
		t.Fatal("missing file accepted")
	}
}
