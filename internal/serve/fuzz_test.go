package serve

import (
	"bytes"
	"testing"

	"sleepscale/internal/core"
	"sleepscale/internal/eventlog"
	"sleepscale/internal/queue"
)

// fuzzSeedCheckpoint is a hand-built checkpoint exercising every encoded
// field, including the engine branch.
func fuzzSeedCheckpoint() *Checkpoint {
	return &Checkpoint{
		State: core.LiveState{
			Epoch:       7,
			Slot:        35,
			LastArrival: 2099.5,
			JobsOffered: 1234,
			JobsServed:  1200,
			Pending:     []queue.Job{{Arrival: 2090, Size: 0.01}, {Arrival: 2095, Size: 0.02}},
			LastMean:    0.8,
			LastP95:     2.5,
			LastJobs:    170,
			FreqSum:     5.6,
			PlanNames:   []string{"C0S0", "C6S0(i)"},
			PlanCounts:  []int64{3, 4},
			RngDraws:    991,
			Predictor:   []byte{1, 2, 3, 4, 5},
			Window: eventlog.WindowState{
				Capacity: 3,
				Epochs: []eventlog.Epoch{
					{Gaps: []float64{0.1, 0.2}, Sizes: []float64{0.01, 0.02}},
					{Gaps: []float64{0.3}, Sizes: []float64{0.03}},
				},
			},
			HasEngine:    true,
			CurFrequency: 0.85,
			CurPlanName:  "C6S0(i)",
			CurPhases:    []core.LivePhase{{CPU: 0, Platform: 0, Enter: 0}, {CPU: 6, Platform: 0, Enter: 0.5}},
			Engine: queue.EngineState{
				FreeAt: 2098, Anchor: 2040, Billed: 2040, Energy: 310.5,
				Busy: 1500, Wake: 20, Idle: 520, Wakes: 44,
				Started: 1, LastSeen: 2095,
				Resid:            []float64{1, 2, 3},
				ResidPrevNames:   []string{"C0S0"},
				ResidPrevWeights: []float64{0.25},
			},
			PrevTotals: queue.Snapshot{Energy: 300, BusyTime: 1400, WakeTime: 18, IdleTime: 500, Jobs: 1100, Wakes: 40},
		},
		EpochLogRows: 7,
		EpochLogDict: []string{"C0S0", "C6S0(i)"},
	}
}

// FuzzCheckpointDecode drives the checkpoint decoder with arbitrary bytes:
// it must return a checkpoint or an error, never panic or over-allocate, and
// anything it accepts must re-encode to a decodable image.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(ckptMagic))
	full := EncodeCheckpoint(fuzzSeedCheckpoint())
	f.Add(full)
	f.Add(full[:len(full)/2])
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-3] ^= 0x10
	f.Add(flipped)
	minimal := EncodeCheckpoint(&Checkpoint{State: core.LiveState{Window: eventlog.WindowState{Capacity: 3}}})
	f.Add(minimal)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		// Accepted images must round-trip: re-encoding the decoded state
		// yields an image that decodes to the same state.
		again, err := DecodeCheckpoint(EncodeCheckpoint(c))
		if err != nil {
			t.Fatalf("re-encode of accepted checkpoint rejected: %v", err)
		}
		_ = again
	})
}

// FuzzWireDecode drives the wire decoder with arbitrary bytes: every stream
// ends in a clean EventEnd or an error, never a panic or an infinite loop.
func FuzzWireDecode(f *testing.F) {
	var buf bytes.Buffer
	w := NewWireWriter(&buf)
	w.Job(queue.Job{Arrival: 1, Size: 0.5})
	w.Slot(0.7)
	w.End()
	f.Add(buf.Bytes())
	f.Add([]byte(wireMagic))
	f.Add([]byte("XXXX"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewWireReader(bytes.NewReader(data))
		for i := 0; i <= len(data)+1; i++ {
			ev, err := r.Next()
			if err != nil {
				return
			}
			if ev.Kind == EventEnd {
				return
			}
		}
		t.Fatal("decoder consumed more events than input bytes")
	})
}
