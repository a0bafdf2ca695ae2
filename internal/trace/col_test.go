package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sleepscale/internal/colstore"
)

func TestColRoundTrip(t *testing.T) {
	tr := EmailStore(1, 2)
	path := filepath.Join(t.TempDir(), "t.col")
	if err := tr.WriteCol(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCol(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.SlotSeconds != tr.SlotSeconds || got.Len() != tr.Len() {
		t.Fatalf("round trip changed metadata: %q %g %d", got.Name, got.SlotSeconds, got.Len())
	}
	for i := range tr.Utilization {
		if math.Float64bits(got.Utilization[i]) != math.Float64bits(tr.Utilization[i]) {
			t.Fatalf("slot %d: %v != %v", i, got.Utilization[i], tr.Utilization[i])
		}
	}
}

// TestReadFileSniffsFormat pins the loader's format check: a CSV file is not
// taken for columnar, a column file is recognized and read bit-exact, and a
// missing file is an error.
func TestReadFileSniffsFormat(t *testing.T) {
	tr := EmailStore(1, 1)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	colPath := filepath.Join(dir, "t.col")
	if err := tr.WriteCol(colPath); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path, name string
		col        bool
	}{
		{csvPath, "csv", false},
		{colPath, tr.Name, true},
	} {
		f, err := os.Open(c.path)
		if err != nil {
			t.Fatal(err)
		}
		sniffed := colstore.HasMagic(f)
		f.Close()
		if sniffed != c.col {
			t.Fatalf("%s: column magic %v, want %v", c.path, sniffed, c.col)
		}
		got, err := ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != c.name || got.Len() != tr.Len() {
			t.Fatalf("%s: read %q with %d slots, want %q with %d", c.path, got.Name, got.Len(), c.name, tr.Len())
		}
		for i := range tr.Utilization {
			if math.Float64bits(got.Utilization[i]) != math.Float64bits(tr.Utilization[i]) {
				t.Fatalf("%s: slot %d: %v != %v", c.path, i, got.Utilization[i], tr.Utilization[i])
			}
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestColMatchesCSV pins the two serializations to the same materialized
// trace (CSV goes through decimal text, so compare values, not bits — 'g'
// with precision -1 round-trips float64 exactly).
func TestColMatchesCSV(t *testing.T) {
	tr := FileServer(1, 4)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.col")
	if err := tr.WriteCol(path); err != nil {
		t.Fatal(err)
	}
	fromCol, err := ReadCol(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromCol.Len() != fromCSV.Len() {
		t.Fatalf("lengths differ: %d vs %d", fromCol.Len(), fromCSV.Len())
	}
	for i := range fromCSV.Utilization {
		if math.Float64bits(fromCol.Utilization[i]) != math.Float64bits(fromCSV.Utilization[i]) {
			t.Fatalf("slot %d: col %v != csv %v", i, fromCol.Utilization[i], fromCSV.Utilization[i])
		}
	}
}

// TestSlotReaderSteadyStateAllocs pins the buffered row parser: after the
// first row, Next allocates nothing.
func TestSlotReaderSteadyStateAllocs(t *testing.T) {
	tr := FileServer(1, 4)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	sr := NewSlotReader(bytes.NewReader(buf.Bytes()))
	if _, _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok, err := sr.Next(); err != nil || !ok {
			t.Fatal("reader ran dry mid-benchmark")
		}
	})
	if allocs != 0 {
		t.Fatalf("SlotReader.Next allocates %.1f/op, want 0", allocs)
	}
}

// SlotReader behavioral edges the csv-based parser handled.
func TestSlotReaderEdgeCases(t *testing.T) {
	read := func(s string) ([]float64, error) {
		sr := NewSlotReader(strings.NewReader(s))
		var out []float64
		for {
			u, ok, err := sr.Next()
			if err != nil {
				return out, err
			}
			if !ok {
				return out, nil
			}
			out = append(out, u)
		}
	}
	// Header optional, CRLF tolerated, no trailing newline, blank lines.
	got, err := read("slot,utilization\r\n0,0.25\r\n\n1,0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0.25 || got[1] != 0.5 {
		t.Fatalf("parsed %v", got)
	}
	// Headerless input keeps row 0.
	got, err = read("0,0.125\n1,0.375\n")
	if err != nil || len(got) != 2 || got[0] != 0.125 {
		t.Fatalf("headerless: %v, %v", got, err)
	}
	for _, bad := range []string{
		"0,0.5,9\n",  // too many fields
		"justone\n",  // too few fields
		"0,nope\n",   // unparseable value
		"0,1.5\n",    // out of range
		"0,-0.1\n",   // negative
		"slot,1.5\n", // header only on row 0 — this is a data row with a bad value
	} {
		if _, err := read("0,0.5\n" + bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
	// A long line spilling the buffer still parses.
	long := "0," + "0.2500000000000000000000000000000000000000" + strings.Repeat("0", slotReaderBuf) + "\n"
	got, err = read(long)
	if err != nil || len(got) != 1 || got[0] != 0.25 {
		t.Fatalf("long line: %v, %v", got, err)
	}
}
