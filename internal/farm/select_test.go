package farm

import (
	"testing"

	"sleepscale/internal/queue"
)

// maskedPick is the reference "linear scan over all k servers, skipping the
// excluded ones" the Select view must match: JSQ and least-work-left
// comparisons over the full farm with down servers masked out, ties toward
// the lowest surviving index.
func maskedPick(f *Farm, disp Dispatcher, healthy []int, j queue.Job) int {
	best, first := -1, true
	var bestKey float64
	for _, s := range healthy {
		var key float64
		switch disp.(type) {
		case JSQ:
			key = f.engines[s].Backlog(j.Arrival)
		case *LeastWorkLeft:
			key = f.engines[s].NextFreeAt(j)
		default:
			panic("maskedPick: unsupported dispatcher")
		}
		if first || key < bestKey {
			best, bestKey, first = s, key, false
		}
	}
	return best
}

// servers lists the indices s in [0, k) with keep(s).
func servers(k int, keep func(s int) bool) []int {
	var out []int
	for s := 0; s < k; s++ {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// TestSelectViewMatchesMaskedScan pins the tentpole routing contract: serving
// through a Select view — on the O(log k) index and the linear arm — routes
// every job to exactly the server a masked linear scan over the full farm
// (down servers skipped) would pick, with bit-identical responses. The
// 7-server view scans; the 67- and 480-server views route through the index.
func TestSelectViewMatchesMaskedScan(t *testing.T) {
	for _, tc := range []struct {
		k       int
		healthy []int
	}{
		{16, []int{0, 2, 3, 7, 8, 9, 14}},
		{100, servers(100, func(s int) bool { return s%3 != 1 })},
		{600, servers(600, func(s int) bool { return s%5 != 2 })},
	} {
		k, healthy := tc.k, tc.healthy
		jobs := expJobs(4000, 10*float64(len(healthy)), 5, 11)

		for _, d := range indexedDispatchers() {
			// Reference: masked sequential scan over the full farm.
			ref, err := New(k, deepCfg(), d.mk())
			if err != nil {
				t.Fatal(err)
			}
			refResp := make([]float64, len(jobs))
			refSrv := make([]int, len(jobs))
			for i, j := range jobs {
				s := maskedPick(ref, ref.disp, healthy, j)
				r, err := ref.engines[s].Process(j)
				if err != nil {
					t.Fatalf("%s ref job %d: %v", d.name, i, err)
				}
				refResp[i], refSrv[i] = r, s
			}

			for _, linear := range []bool{false, true} {
				disp := d.mk()
				if linear {
					disp = scanOnly{disp}
				}
				full, err := New(k, deepCfg(), disp)
				if err != nil {
					t.Fatal(err)
				}
				view, err := full.Select(nil, healthy)
				if err != nil {
					t.Fatal(err)
				}
				resp := make([]float64, len(jobs))
				srv := make([]int, len(jobs))
				view.RecordServe(resp, srv)
				n, err := view.ServeSource(&sliceSource{jobs: jobs})
				if err != nil {
					t.Fatalf("k=%d %s linear=%v: %v", k, d.name, linear, err)
				}
				if n != len(jobs) {
					t.Fatalf("k=%d %s linear=%v served %d of %d", k, d.name, linear, n, len(jobs))
				}
				for i := range jobs {
					if got := healthy[srv[i]]; got != refSrv[i] {
						t.Fatalf("k=%d %s linear=%v job %d routed to %d, masked scan picked %d", k, d.name, linear, i, got, refSrv[i])
					}
					if resp[i] != refResp[i] {
						t.Fatalf("k=%d %s linear=%v job %d response %g != %g", k, d.name, linear, i, resp[i], refResp[i])
					}
				}
				// Engine-level totals agree server for server.
				for _, s := range healthy {
					if g, w := full.engines[s].Snapshot(), ref.engines[s].Snapshot(); g != w {
						t.Fatalf("k=%d %s linear=%v server %d totals %+v != %+v", k, d.name, linear, s, g, w)
					}
				}
			}
		}
	}
}

// TestSelectViewResize drives one reused view through subsets of different
// sizes — the crash/repair cadence — checking the resized scratch and the
// rebound routing index stay bit-identical to fresh views, as the view moves
// between the index and the scan.
func TestSelectViewResize(t *testing.T) {
	const k = 400
	phases := [][]int{
		servers(k, func(s int) bool { return s < 300 }),
		servers(k, func(s int) bool { return s%2 == 0 }),
		servers(k, func(s int) bool { return s <= 10 }),
		{3, 11},
		servers(k, func(s int) bool { return s >= 50 }),
	}
	for _, d := range indexedDispatchers() {
		reused, err := New(k, deepCfg(), d.mk())
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(k, deepCfg(), d.mk())
		if err != nil {
			t.Fatal(err)
		}
		var view *Farm
		base := 0.0
		for pi, healthy := range phases {
			jobs := expJobs(1500, 6*float64(len(healthy)), 5, int64(40+pi))
			for i := range jobs {
				jobs[i].Arrival += base
			}
			base = jobs[len(jobs)-1].Arrival + 1

			view, err = reused.Select(view, healthy)
			if err != nil {
				t.Fatal(err)
			}
			respA := make([]float64, len(jobs))
			srvA := make([]int, len(jobs))
			view.RecordServe(respA, srvA)
			if _, err := view.ServeSource(&sliceSource{jobs: jobs}); err != nil {
				t.Fatalf("%s phase %d reused: %v", d.name, pi, err)
			}

			fv, err := fresh.Select(nil, healthy)
			if err != nil {
				t.Fatal(err)
			}
			respB := make([]float64, len(jobs))
			srvB := make([]int, len(jobs))
			fv.RecordServe(respB, srvB)
			if _, err := fv.ServeSource(&sliceSource{jobs: jobs}); err != nil {
				t.Fatalf("%s phase %d fresh: %v", d.name, pi, err)
			}
			for i := range jobs {
				if respA[i] != respB[i] || srvA[i] != srvB[i] {
					t.Fatalf("%s phase %d job %d: reused (%g, %d) != fresh (%g, %d)",
						d.name, pi, i, respA[i], srvA[i], respB[i], srvB[i])
				}
			}
		}
	}
}

// TestSelectRejects covers the selection guards.
func TestSelectRejects(t *testing.T) {
	f, err := New(4, deepCfg(), JSQ{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Select(nil, nil); err == nil {
		t.Fatal("empty selection accepted")
	}
	if _, err := f.Select(nil, []int{2, 1}); err == nil {
		t.Fatal("descending selection accepted")
	}
	if _, err := f.Select(nil, []int{1, 1}); err == nil {
		t.Fatal("duplicate selection accepted")
	}
	if _, err := f.Select(nil, []int{0, 4}); err == nil {
		t.Fatal("out-of-range selection accepted")
	}
	if _, err := f.Select(nil, []int{-1}); err == nil {
		t.Fatal("negative selection accepted")
	}
}
