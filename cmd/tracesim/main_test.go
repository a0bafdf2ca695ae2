package main

import (
	"math"
	"path/filepath"
	"testing"

	"sleepscale"
)

// TestLoadTraceSniffsFormat pins loadTrace on files: the same trace written
// as CSV and as a column file loads identically, format detected by magic.
func TestLoadTraceSniffsFormat(t *testing.T) {
	tr := sleepscale.EmailStoreTrace(1, 3)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	colPath := filepath.Join(dir, "t.col")
	if err := convertTrace(tr, csvPath); err != nil {
		t.Fatal(err)
	}
	if err := convertTrace(tr, colPath); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := loadTrace(csvPath, 1, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fromCol, err := loadTrace(colPath, 1, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fromCol.Len() != tr.Len() || fromCSV.Len() != tr.Len() {
		t.Fatalf("lengths: csv %d, col %d, want %d", fromCSV.Len(), fromCol.Len(), tr.Len())
	}
	for i := range tr.Utilization {
		if math.Float64bits(fromCol.Utilization[i]) != math.Float64bits(fromCSV.Utilization[i]) {
			t.Fatalf("slot %d: col %v != csv %v", i, fromCol.Utilization[i], fromCSV.Utilization[i])
		}
	}
	// Columnar carries exact bits and metadata CSV cannot.
	if fromCol.SlotSeconds != tr.SlotSeconds {
		t.Fatalf("col slot seconds %g, want %g", fromCol.SlotSeconds, tr.SlotSeconds)
	}
	for i := range tr.Utilization {
		if math.Float64bits(fromCol.Utilization[i]) != math.Float64bits(tr.Utilization[i]) {
			t.Fatalf("slot %d not bit-exact through columnar", i)
		}
	}
}

func TestLoadTraceSynthetic(t *testing.T) {
	tr, err := loadTrace("file-server", 1, 1, 120, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1080 {
		t.Fatalf("windowed day has %d slots, want 1080", tr.Len())
	}
	if _, err := loadTrace("nope-does-not-exist", 1, 1, 0, 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestBuildPredictorNames pins -predictor's help to its parser: every name
// the help lists builds.
func TestBuildPredictorNames(t *testing.T) {
	tr := sleepscale.EmailStoreTrace(1, 1)
	for _, name := range predictorNames {
		if _, err := buildPredictor(name, tr, 1080); err != nil {
			t.Errorf("listed predictor %q: %v", name, err)
		}
	}
	if _, err := buildPredictor("MA", tr, 1080); err == nil {
		t.Error("unlisted predictor MA accepted")
	}
}
