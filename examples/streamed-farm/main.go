// Example streamed-farm: dispatch a full 7-day diurnal + flash-crowd
// scenario across a 16-server farm without ever materializing the job
// stream. Jobs are pulled from composed generators (a day/night sinusoid
// merged with spike-and-decay flash crowds) in 256-job chunks and routed by
// JSQ at their arrival instants, so peak job-buffer memory is O(chunk)
// however long the week (the MB figure below is dominated by the
// per-server response samples the result carries, not by the stream).
// The demo dispatches the week once, records the composed stream to a
// columnar job log, replays the log through the same dispatch, and checks
// the replay is bit-identical to the live run.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sleepscale"
)

const (
	servers = 16
	day     = 86400.0
	week    = 7 * day
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("streamed-farm: ")

	spec := sleepscale.DNS()
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		log.Fatal(err)
	}

	// The farm's operating point: full frequency, deep sleep the moment a
	// queue empties — scale-out leaves servers idle often enough that the
	// sleep states carry the power story.
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	cfg, err := pol.Config(sleepscale.Xeon(), spec.FreqExponent)
	if err != nil {
		log.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	live, err := sleepscale.RunFarmSource(servers, cfg, sleepscale.JSQ{}, buildScenario(stats))
	if err != nil {
		log.Fatal(err)
	}
	liveT := time.Since(start)
	runtime.ReadMemStats(&after)
	fmt.Printf("live dispatch       %8d jobs  %.4f s mean response  %7.1f W  %6.1f MB  %v\n",
		live.Jobs, live.MeanResponse, live.TotalAvgPower,
		float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), liveT.Round(time.Millisecond))

	// Record the composed stream to a columnar job log, then replay the
	// week from the memory-mapped file. Replay skips the generators
	// entirely — arrivals and sizes stream zero-copy from disk — and must
	// reproduce the live dispatch bit for bit.
	dir, err := os.MkdirTemp("", "streamed-farm")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	jobsPath := filepath.Join(dir, "week-jobs.col")
	n, err := sleepscale.RecordJobsCol(buildScenario(stats), jobsPath)
	if err != nil {
		log.Fatal(err)
	}
	r, err := sleepscale.OpenCol(jobsPath)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	replaySrc, err := sleepscale.NewColJobsSource(r)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	replay, err := sleepscale.RunFarmSource(servers, cfg, sleepscale.JSQ{}, replaySrc)
	if err != nil {
		log.Fatal(err)
	}
	replayT := time.Since(start)
	fmt.Printf("columnar replay     %8d jobs  %.4f s mean response  %7.1f W  %9s  %v\n",
		replay.Jobs, replay.MeanResponse, replay.TotalAvgPower, "(mmap)", replayT.Round(time.Millisecond))
	if replay.Jobs != n || replay.Jobs != live.Jobs || replay.MeanResponse != live.MeanResponse ||
		replay.Energy != live.Energy || replay.TotalAvgPower != live.TotalAvgPower {
		log.Fatal("columnar replay diverged from the live dispatch")
	}
	fmt.Println("recorded replay == live: bit-identical dispatch from the column file")

	// JSQ breaks backlog ties toward the lowest index, so at off-peak load
	// it packs work onto the first few servers and leaves the rest asleep —
	// the flash crowds are what spill jobs down the fleet. The share
	// gradient below is that packing made visible.
	fmt.Printf("job share by server (JSQ packs low indices, the tail sleeps):\n ")
	for _, share := range live.JobShare {
		fmt.Printf(" %.3f", share)
	}
	fmt.Println()
}

// buildScenario composes the week: a diurnal baseline swinging between
// night and day rates, merged with flash crowds spiking every ~8 hours and
// decaying over ten minutes. Each call returns a fresh source, so the live
// dispatch and the recording see the identical stream.
func buildScenario(stats sleepscale.Stats) sleepscale.StreamSource {
	diurnal, err := sleepscale.NewDiurnalSource(sleepscale.DiurnalConfig{
		BaseRate: 1.0, // night trough, jobs/s across the whole farm
		PeakRate: 6.0, // midafternoon peak
		Period:   day,
		Phase:    0.6, // peak at ~14:24
		Size:     stats.Size,
		Horizon:  week,
	}, 11)
	if err != nil {
		log.Fatal(err)
	}
	crowd, err := sleepscale.NewFlashCrowdSource(sleepscale.FlashCrowdConfig{
		BaseRate:   0.2,      // quiescent overlay rate
		SpikeEvery: 8 * 3600, // a flash crowd every ~8 h
		Peak:       20,       // ×20 intensity at onset
		Decay:      600,      // ten-minute e-folding
		Size:       stats.Size,
		Horizon:    week,
	}, 12)
	if err != nil {
		log.Fatal(err)
	}
	return sleepscale.MergeSources(diurnal, crowd)
}
