package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestEmailStoreShape(t *testing.T) {
	tr := EmailStore(3, 1)
	if tr.Len() != 3*MinutesPerDay {
		t.Fatalf("len = %d, want %d", tr.Len(), 3*MinutesPerDay)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	mean, min, max := tr.Stats()
	// Figure 7: the email store covers roughly 0.1–0.9 across the day.
	if min > 0.15 {
		t.Errorf("min = %v, want ≲ 0.15", min)
	}
	if max < 0.8 {
		t.Errorf("max = %v, want ≳ 0.8", max)
	}
	if mean < 0.2 || mean > 0.7 {
		t.Errorf("mean = %v, want mid-range", mean)
	}
	// Backup window (8 PM–2 AM) must run hotter than the overnight trough
	// (2–6 AM) — the abrupt end-of-day surge of Figure 7.
	backup := avg(tr.Utilization[20*60 : 24*60])
	trough := avg(tr.Utilization[2*60 : 6*60])
	if backup < trough+0.3 {
		t.Errorf("backup window %v not markedly above trough %v", backup, trough)
	}
}

func TestFileServerShape(t *testing.T) {
	tr := FileServer(3, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	mean, _, max := tr.Stats()
	// Figure 7: file server stays below ≈0.25 with a low mean.
	if max > 0.25 {
		t.Errorf("max = %v, want ≤ 0.25", max)
	}
	if mean > 0.15 {
		t.Errorf("mean = %v, want ≲ 0.15", mean)
	}
}

func TestTracesDeterministicInSeed(t *testing.T) {
	a := EmailStore(1, 42)
	b := EmailStore(1, 42)
	c := EmailStore(1, 43)
	for i := range a.Utilization {
		if a.Utilization[i] != b.Utilization[i] {
			t.Fatalf("same seed diverged at slot %d", i)
		}
	}
	same := true
	for i := range a.Utilization {
		if a.Utilization[i] != c.Utilization[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestDailyPeriodicity(t *testing.T) {
	// The underlying diurnal component repeats daily; day-to-day correlation
	// of the trace should be strongly positive.
	tr := EmailStore(2, 7)
	d0 := tr.Utilization[:MinutesPerDay]
	d1 := tr.Utilization[MinutesPerDay:]
	if corr(d0, d1) < 0.7 {
		t.Errorf("day-to-day correlation %v, want ≥ 0.7 (periodic pattern)", corr(d0, d1))
	}
}

func TestWindow(t *testing.T) {
	tr := EmailStore(1, 1)
	w, err := tr.Window(120, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1080 {
		t.Fatalf("window len = %d, want 1080", w.Len())
	}
	if w.Utilization[0] != tr.Utilization[120] {
		t.Error("window misaligned")
	}
	// Mutating the window must not affect the original.
	w.Utilization[0] = 0.123456
	if tr.Utilization[120] == 0.123456 {
		t.Error("window aliases original storage")
	}
	for _, bad := range [][2]int{{-1, 10}, {10, 5}, {0, tr.Len() + 1}} {
		if _, err := tr.Window(bad[0], bad[1]); err == nil {
			t.Errorf("window %v accepted", bad)
		}
	}
}

func TestDailyWindow(t *testing.T) {
	tr := EmailStore(3, 2)
	// The paper's evaluation window: 2 AM (minute 120) to 8 PM (minute 1200).
	w, err := tr.DailyWindow(120, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3*1080 {
		t.Fatalf("len = %d, want %d", w.Len(), 3*1080)
	}
	if w.Utilization[0] != tr.Utilization[120] {
		t.Error("day 0 misaligned")
	}
	if w.Utilization[1080] != tr.Utilization[MinutesPerDay+120] {
		t.Error("day 1 misaligned")
	}
	if _, err := tr.DailyWindow(1200, 120); err == nil {
		t.Error("inverted window accepted")
	}
	empty := &Trace{SlotSeconds: 60}
	if _, err := empty.DailyWindow(0, 10); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := FileServer(1, 5)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Utilization {
		if got.Utilization[i] != tr.Utilization[i] {
			t.Fatalf("slot %d: %v != %v", i, got.Utilization[i], tr.Utilization[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"slot,utilization\n0,notanumber\n",
		"slot,utilization\n0,1.5\n", // utilization >= 1
		"slot,utilization\n0,-0.1\n",
	}
	for i, s := range cases {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("case %d accepted: %q", i, s)
		}
	}
	// Headerless input is fine.
	got, err := ReadCSV(strings.NewReader("0,0.5\n1,0.6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Utilization[1] != 0.6 {
		t.Errorf("headerless parse wrong: %+v", got)
	}
}

func TestValidate(t *testing.T) {
	bad := &Trace{SlotSeconds: 0, Utilization: []float64{0.5}}
	if err := bad.Validate(); err == nil {
		t.Error("zero slot length accepted")
	}
	bad = &Trace{SlotSeconds: 60, Utilization: []float64{1.0}}
	if err := bad.Validate(); err == nil {
		t.Error("utilization 1.0 accepted")
	}
}

func TestDuration(t *testing.T) {
	tr := &Trace{SlotSeconds: 60, Utilization: make([]float64, 10)}
	if got := tr.Duration(); got != 600 {
		t.Errorf("duration = %v, want 600", got)
	}
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func corr(a, b []float64) float64 {
	ma, mb := avg(a), avg(b)
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / (sqrt(da) * sqrt(db))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton's method is fine here; avoids importing math for one call.
	g := x
	for i := 0; i < 40; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}

// TestSlotReaderMatchesReadCSV pins the one-parser-two-drivers invariant:
// row-at-a-time streaming yields exactly the slots batch parsing does.
func TestSlotReaderMatchesReadCSV(t *testing.T) {
	tr := EmailStore(1, 9)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	want, err := ReadCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sr := NewSlotReader(bytes.NewReader(data))
	var got []float64
	for {
		u, ok, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, u)
	}
	if len(got) != want.Len() {
		t.Fatalf("%d slots, want %d", len(got), want.Len())
	}
	for i := range got {
		if got[i] != want.Utilization[i] {
			t.Fatalf("slot %d: %v != %v", i, got[i], want.Utilization[i])
		}
	}
}

func TestSlotReaderErrors(t *testing.T) {
	cases := []string{
		"slot,utilization\n0,notanumber\n",
		"slot,utilization\n0,1.5\n",
		"slot,utilization\n0,-0.1\n",
		"slot,utilization\nlonely\n",
		"0,0.5\n1,0.6,0.9\n", // ragged row: extra field
	}
	for i, s := range cases {
		sr := NewSlotReader(strings.NewReader(s))
		var err error
		var ok bool
		for {
			_, ok, err = sr.Next()
			if err != nil || !ok {
				break
			}
		}
		if err == nil {
			t.Errorf("case %d accepted: %q", i, s)
		}
	}
}
