package fault

import (
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sleepscale/internal/colstore"
	"sleepscale/internal/stream"
)

func collect(t *testing.T, src Source) []Event {
	t.Helper()
	var out []Event
	buf := make([]Event, 7)
	for {
		n, ok := src.Next(buf)
		out = append(out, buf[:n]...)
		if !ok {
			return out
		}
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule(`
# a scripted outage
10 1 crash
20.5 0 crash   # overlapping outage
30 1 repair

40 0 repair
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{10, 1, Crash}, {20.5, 0, Crash}, {30, 1, Repair}, {40, 0, Repair},
	}
	got := collect(t, s)
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Reset replays identically.
	s.Reset(99)
	again := collect(t, s)
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("after reset, event %d: got %+v want %+v", i, again[i], want[i])
		}
	}
}

func TestParseScheduleRejects(t *testing.T) {
	cases := map[string]string{
		"fields":          "10 0",
		"time":            "x 0 crash",
		"neg time":        "-1 0 crash",
		"server":          "10 x crash",
		"neg server":      "10 -1 crash",
		"kind":            "10 0 explode",
		"unsorted":        "10 0 crash\n5 1 crash",
		"double crash":    "10 0 crash\n20 0 crash",
		"repair while up": "10 0 repair",
	}
	for name, text := range cases {
		if _, err := ParseSchedule(text); err == nil {
			t.Errorf("%s: %q parsed, want error", name, text)
		}
	}
}

func TestFormatScheduleRoundTrip(t *testing.T) {
	events := []Event{{1.25, 3, Crash}, {2, 0, Crash}, {4.5, 3, Repair}, {9, 0, Repair}}
	s, err := ParseSchedule(FormatSchedule(events))
	if err != nil {
		t.Fatal(err)
	}
	got := s.Events()
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], events[i])
		}
	}
}

func TestRenewalDeterminism(t *testing.T) {
	cfg := RenewalConfig{Servers: 8, MTBF: 100, MTTR: 20, Horizon: 2000}
	r, err := NewRenewal(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]Event(nil), collect(t, r)...)
	if len(first) == 0 {
		t.Fatal("no events drawn; horizon should yield many")
	}
	r.Reset(42)
	second := collect(t, r)
	if len(first) != len(second) {
		t.Fatalf("reseed changed event count: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("event %d differs after Reset(same seed): %+v vs %+v", i, first[i], second[i])
		}
	}
	r.Reset(43)
	third := collect(t, r)
	same := len(third) == len(first)
	if same {
		for i := range first {
			if first[i] != third[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seed produced identical timeline")
	}
	// The drawn timeline must itself be a valid schedule.
	if _, err := NewSchedule(first); err != nil {
		t.Fatalf("renewal timeline invalid: %v", err)
	}
}

// drawRenewal is the draw loop Renewal.Reset ran before it reseeded one
// source and rewound a timeline it already held: a new source per server,
// drawn on every call.
func drawRenewal(cfg RenewalConfig, seed int64) []Event {
	var events []Event
	for s := 0; s < cfg.Servers; s++ {
		rng := rand.New(rand.NewSource(splitmix64(seed, int64(s))))
		t := 0.0
		for {
			t += rng.ExpFloat64() * cfg.MTBF
			if t >= cfg.Horizon {
				break
			}
			events = append(events, Event{Time: t, Server: s, Kind: Crash})
			t += rng.ExpFloat64() * cfg.MTTR
			if t >= cfg.Horizon {
				break
			}
			events = append(events, Event{Time: t, Server: s, Kind: Repair})
		}
	}
	sortEvents(events)
	return events
}

// TestRenewalResetMatchesFreshDraws: whether Reset rewinds (the seed it
// holds) or redraws (any other), the timeline must be the one new sources
// draw, from its first event, however far the last one was read. A redraw
// allocates no source per server.
func TestRenewalResetMatchesFreshDraws(t *testing.T) {
	cfg := RenewalConfig{Servers: 200, MTBF: 100, MTTR: 20, Horizon: 2000}
	r, err := NewRenewal(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Event, 100)
	for i, seed := range []int64{5, 5, 6, 5, -3, -3, 5} {
		r.Reset(seed)
		if got, want := collect(t, r), drawRenewal(cfg, seed); !slices.Equal(got, want) {
			t.Fatalf("Reset #%d (seed %d): %d events differ from a fresh draw's %d", i, seed, len(got), len(want))
		}
		r.Reset(seed)
		r.Next(buf) // part read: the next Reset must still start at the first event
	}
	if allocs := testing.AllocsPerRun(3, func() { r.Reset(1); r.Reset(2) }); allocs > 10 {
		t.Errorf("two redraws of %d servers allocate %v times", cfg.Servers, allocs)
	}
}

func TestRenewalServerIndependence(t *testing.T) {
	// Growing the fleet must not perturb existing servers' timelines.
	small, err := NewRenewal(RenewalConfig{Servers: 3, MTBF: 50, MTTR: 10, Horizon: 500}, 7)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRenewal(RenewalConfig{Servers: 6, MTBF: 50, MTTR: 10, Horizon: 500}, 7)
	if err != nil {
		t.Fatal(err)
	}
	filter := func(evs []Event) []Event {
		var out []Event
		for _, ev := range evs {
			if ev.Server < 3 {
				out = append(out, ev)
			}
		}
		return out
	}
	a, b := filter(small.Events()), filter(big.Events())
	if len(a) != len(b) {
		t.Fatalf("server<3 event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRenewalValidate(t *testing.T) {
	bad := []RenewalConfig{
		{Servers: 0, MTBF: 1, MTTR: 1, Horizon: 1},
		{Servers: 1, MTBF: 0, MTTR: 1, Horizon: 1},
		{Servers: 1, MTBF: 1, MTTR: -2, Horizon: 1},
		{Servers: 1, MTBF: 1, MTTR: 1, Horizon: 0},
	}
	for i, cfg := range bad {
		if _, err := NewRenewal(cfg, 1); err == nil {
			t.Errorf("config %d validated, want error", i)
		}
	}
}

func TestCursor(t *testing.T) {
	s, err := NewSchedule([]Event{{1, 0, Crash}, {2, 1, Crash}, {3, 0, Repair}})
	if err != nil {
		t.Fatal(err)
	}
	c := stream.NewCursor(s)
	var got []Event
	for {
		ev, ok := c.Peek()
		if !ok {
			break
		}
		// Peek is idempotent.
		if ev2, _ := c.Peek(); ev2 != ev {
			t.Fatalf("second peek %+v != %+v", ev2, ev)
		}
		got = append(got, ev)
		c.Advance()
	}
	if len(got) != 3 {
		t.Fatalf("cursor yielded %d events, want 3", len(got))
	}
	s.Reset(0)
	c.Reset(s)
	if ev, ok := c.Peek(); !ok || ev != (Event{1, 0, Crash}) {
		t.Fatalf("after reset, peek = %+v, %v", ev, ok)
	}
}

func TestRetryPolicyValidate(t *testing.T) {
	if err := (RetryPolicy{Budget: 2, Backoff: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (RetryPolicy{Budget: -1}).Validate(); err == nil {
		t.Fatal("negative budget validated")
	}
	if err := (RetryPolicy{Backoff: -0.1}).Validate(); err == nil {
		t.Fatal("negative backoff validated")
	}
}

func TestWriteLog(t *testing.T) {
	events := []Event{{1, 0, Crash}, {2, 1, Crash}, {3.5, 0, Repair}}
	path := filepath.Join(t.TempDir(), "faults.col")
	if err := WriteLog(path, events); err != nil {
		t.Fatal(err)
	}
	// Append-only: a second write grows the same file.
	if err := WriteLog(path, []Event{{9, 1, Repair}}); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Schema().Kind != colstore.KindFaults {
		t.Fatalf("kind %d", r.Schema().Kind)
	}
	if r.Rows() != 4 {
		t.Fatalf("rows %d != 4", r.Rows())
	}
	ki := r.Schema().ColIndex("kind")
	col, err := r.Col(0, ki, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 1, 1}
	for i, v := range col {
		if v != want[i] {
			t.Fatalf("kind[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestKindString(t *testing.T) {
	if Crash.String() != "crash" || Repair.String() != "repair" {
		t.Fatalf("kind strings: %q %q", Crash, Repair)
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatalf("unknown kind string %q", Kind(9))
	}
}
