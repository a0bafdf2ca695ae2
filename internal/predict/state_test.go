package predict

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// checkpointable pairs the predictor interface with the marshaling side.
type checkpointable interface {
	Predictor
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// synthetic utilization trace with drift and a level shift, enough to warm
// every predictor's internal state.
func stateTrace(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		x := 0.45 + 0.3*math.Sin(float64(i)/7) + 0.01*float64(i%13)
		if i > n/2 {
			x += 0.25
		}
		out[i] = math.Min(0.95, math.Max(0.05, x))
	}
	return out
}

func TestStateRoundTripMidStream(t *testing.T) {
	cases := []struct {
		name  string
		make  func() checkpointable
		split int
	}{
		{"naive", func() checkpointable { return NewNaivePrevious() }, 17},
		{"moving-average", func() checkpointable { return NewMovingAverage(5) }, 23},
		{"moving-average-cold", func() checkpointable { return NewMovingAverage(5) }, 2},
		{"lms", func() checkpointable {
			l, err := NewLMS(8, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}, 31},
		{"lms-cusum", func() checkpointable {
			c, err := NewLMSCUSUM(8, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, 41},
		{"seasonal-lms", func() checkpointable {
			l, err := NewLMS(6, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSeasonal(l, 12)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, 37},
		{"offline", func() checkpointable { return NewOffline(stateTrace(90)) }, 29},
	}
	trace := stateTrace(90)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.make()
			for _, x := range trace[:tc.split] {
				ref.Predict()
				ref.Observe(x)
			}
			blob, err := ref.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			restored := tc.make()
			if err := restored.UnmarshalBinary(blob); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			// The restored predictor must track the original bit-for-bit
			// over the remainder of the stream.
			for i, x := range trace[tc.split:] {
				want, got := ref.Predict(), restored.Predict()
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("step %d: restored Predict %v, want %v", i, got, want)
				}
				ref.Observe(x)
				restored.Observe(x)
			}
			// And re-marshaling both must agree.
			b1, err := ref.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			b2, err := restored.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if string(b1) != string(b2) {
				t.Fatalf("post-restore state blobs diverge")
			}
		})
	}
}

// TestStateFormatPin pins each predictor's state format by the SHA-256 of
// its MarshalBinary blob after a fixed observation sequence. A restarted
// daemon reads these blobs back from its checkpoints, so a change that
// moves a hash changes what it restores.
func TestStateFormatPin(t *testing.T) {
	lms := func() *LMS {
		l, err := NewLMS(8, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	lc := func() *LMSCUSUM {
		c, err := NewLMSCUSUM(8, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	pins := []struct {
		name string
		p    checkpointable
		want string
	}{
		{"NP", NewNaivePrevious(), "6fc2f88f29ad025fb910815cd61f8bd99682b5e403d118f41ca38a2a85621abb"},
		{"MA", NewMovingAverage(5), "cd6bdd2a6d867fb361d089d3cc4225df4a73c2156e8907cc1f4da22e6c081952"},
		{"LMS", lms(), "4fc06b85d7b1fcc50246f2ca94a7d6513edfec1733ae562ddc99035c1be2cc36"},
		{"LC", lc(), "98ead8b3243d5e57e961f889f5d9b3bf4bda1455882a9ba76863fce441d14c62"},
		{"LC+seasonal", func() checkpointable {
			s, err := NewSeasonal(lc(), 12)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}(), "050c26b910a3b565471e55119e946065eee9786419e8715ab75b8ba8c02e9cbf"},
		{"Offline", NewOffline(stateTrace(90)), "2d63debf9c8e07273c5af85ea2570a7d4991f794ab3e083f7df3c3671e2fcf0a"},
	}
	for _, pin := range pins {
		for _, x := range stateTrace(60) {
			pin.p.Predict()
			pin.p.Observe(x)
		}
		blob, err := pin.p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != pin.want {
			t.Errorf("%s: state SHA-256 %s, want %s", pin.name, got, pin.want)
		}
	}
}

func TestStateRejectsWrongTag(t *testing.T) {
	blob, err := NewNaivePrevious().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewMovingAverage(3).UnmarshalBinary(blob); err == nil {
		t.Fatal("MA accepted an NP state blob")
	}
}

func TestStateRejectsTruncationAndTrailing(t *testing.T) {
	l, err := NewLMS(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range stateTrace(20) {
		l.Predict()
		l.Observe(x)
	}
	blob, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *LMS {
		v, err := NewLMS(4, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Every truncation must error, never panic.
	for cut := 0; cut < len(blob); cut++ {
		if err := fresh().UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("accepted truncation to %d bytes", cut)
		}
	}
	if err := fresh().UnmarshalBinary(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("accepted trailing garbage")
	}
	// Mismatched configuration must be rejected too.
	if other, err2 := NewLMS(5, 0.5); err2 == nil {
		if err := other.UnmarshalBinary(blob); err == nil {
			t.Fatal("depth-5 LMS accepted depth-4 state")
		}
	}
}

// TestStateRejectsConfigMismatch: a state is restored only into a predictor
// configured as the one that wrote it. An LMS or LC blob written with
// another NLMS step, and an LC blob written with another alarm K or floor,
// must be rejected bit for bit, leaving the predictor's configuration and
// state as they were; the matching configuration must still restore.
func TestStateRejectsConfigMismatch(t *testing.T) {
	warm := func(p checkpointable) []byte {
		for _, x := range stateTrace(30) {
			p.Predict()
			p.Observe(x)
		}
		blob, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	lms := func(step float64) *LMS {
		l, err := NewLMS(8, step)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	lc := func(step float64) *LMSCUSUM {
		c, err := NewLMSCUSUM(8, step)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name       string
		blob       []byte
		into, same checkpointable
	}{
		{"LMS step", warm(lms(0.5)), lms(0.3), lms(0.5)},
		{"LMS step by one ulp", warm(lms(0.5)), lms(math.Nextafter(0.5, 1)), lms(0.5)},
		{"LC step", warm(lc(0.5)), lc(0.3), lc(0.5)},
		{"LC K", warm(lc(0.5)), func() checkpointable { c := lc(0.5); c.K = 3; return c }(), lc(0.5)},
		{"LC floor", warm(lc(0.5)), func() checkpointable { c := lc(0.5); c.Floor = 0.05; return c }(), lc(0.5)},
	}
	for _, tc := range cases {
		before, err := tc.into.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.into.UnmarshalBinary(tc.blob); err == nil {
			t.Errorf("%s: a mismatched state was restored", tc.name)
		}
		if after, err := tc.into.MarshalBinary(); err != nil || !bytes.Equal(before, after) {
			t.Errorf("%s: a rejected restore changed the predictor", tc.name)
		}
		if err := tc.same.UnmarshalBinary(tc.blob); err != nil {
			t.Errorf("%s: the matching configuration: %v", tc.name, err)
		}
	}
}

func TestStateRejectsOversizedLengths(t *testing.T) {
	blob, err := NewMovingAverage(3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the window length field (after 4-byte tag + 8-byte p) to a
	// huge value; the decoder must refuse rather than allocate or panic.
	bad := append([]byte(nil), blob...)
	for i := 0; i < 8; i++ {
		bad[4+8+i] = 0xff
	}
	if err := NewMovingAverage(3).UnmarshalBinary(bad); err == nil {
		t.Fatal("accepted absurd length field")
	}
}

// offlineState is an Offline state blob holding cursor.
func offlineState(cursor uint64) []byte {
	blob := binary.LittleEndian.AppendUint32(nil, tagOffline)
	return binary.LittleEndian.AppendUint64(blob, cursor)
}

// TestOfflineRejectsNegativeCursor: a cursor of 2⁶³ or more decodes to a
// negative int, which the next Predict would index with. The largest
// cursor it accepts must not wrap negative as it advances either.
func TestOfflineRejectsNegativeCursor(t *testing.T) {
	o := NewOffline([]float64{0.5})
	if err := o.UnmarshalBinary(offlineState(1 << 63)); err == nil {
		t.Fatalf("accepted cursor %d", o.idx)
	}
	if err := o.UnmarshalBinary(offlineState(math.MaxInt64)); err != nil {
		t.Fatal(err)
	}
	o.Observe(0.5)
	if got := o.Predict(); got != 0.5 {
		t.Fatalf("Predict past the end = %v, want the last value 0.5", got)
	}
}

// fuzzPredictors builds one predictor of each checkpointable kind, in a
// fixed order the fuzz input's kind byte indexes.
func fuzzPredictors() []func() checkpointable {
	lc := func() *LMSCUSUM {
		c, _ := NewLMSCUSUM(8, 0.4)
		return c
	}
	return []func() checkpointable{
		func() checkpointable { return NewNaivePrevious() },
		func() checkpointable { return NewMovingAverage(5) },
		func() checkpointable { l, _ := NewLMS(8, 0.4); return l },
		func() checkpointable { return lc() },
		func() checkpointable { s, _ := NewSeasonal(lc(), 12); return s },
		func() checkpointable { return NewOffline(stateTrace(90)) },
	}
}

// FuzzPredictorState drives every predictor's UnmarshalBinary with
// arbitrary bytes. It must never panic. A state it accepts must marshal
// stably — marshal it, decode that blob into a fresh predictor, marshal
// again, and both blobs are equal — and must survive Predict and Observe.
func FuzzPredictorState(f *testing.F) {
	kinds := fuzzPredictors()
	for i, mk := range kinds {
		p := mk()
		for _, x := range stateTrace(40) {
			p.Predict()
			p.Observe(x)
		}
		blob, err := p.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), blob)
		f.Add(uint8(i), blob[:len(blob)/2])
	}
	f.Add(uint8(len(kinds)-1), offlineState(math.MaxInt64))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		mk := kinds[int(kind)%len(kinds)]
		p := mk()
		if err := p.UnmarshalBinary(data); err != nil {
			return
		}
		b1, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal of accepted state: %v", err)
		}
		q := mk()
		if err := q.UnmarshalBinary(b1); err != nil {
			t.Fatalf("re-decode of accepted state: %v", err)
		}
		b2, err := q.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s state marshals unstably:\n%x\n%x", p.Name(), b1, b2)
		}
		for i := 0; i < 3; i++ {
			p.Predict()
			p.Observe(0.5)
		}
		p.Predict()
	})
}
