package queue

import "slices"

// WakeThreshold reports the threshold above which the last Run counted the
// wakes cfg's bound uses, and whether it counted them.
func (w *WakeFree) WakeThreshold(cfg *Config) (float64, bool) {
	_, wmax, counts := wakeRange(cfg)
	k := slices.Index(w.wake, wmax)
	if !counts || k < 0 {
		return 0, false
	}
	return w.thr[k], true
}

// SetLen makes w's bound stream n jobs long as far as Count can tell, so the
// lane guard can be tested without such a stream.
func (w *WakeFree) SetLen(n int) { w.n = n }
