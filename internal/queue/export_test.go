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
