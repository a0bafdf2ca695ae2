package main

import "time"

// Host speed. The benchmark runs on shared machines whose speed drifts with
// the load of other tenants: on a 2-core Xeon VM the same pass of the same
// input took 0.50 s in one minute and 0.83 s a few minutes later, while a run
// lasts well under a minute. Every host time the benchmark reports is
// therefore scaled to a reference speed. The parent process times a fixed
// reference kernel before set-up and after every pass, while no pass runs,
// and multiplies each measured time by refNominal over the mean of the two
// kernel times around it. The kernel is benchmark code, not the program under
// test, so a change to the program moves a scaled time exactly as much as it
// moves the raw one. The raw times are printed in the report.
//
// The kernel spends about a quarter of its time on each of arithmetic, DRAM
// latency, DRAM bandwidth and L2-sized random access, the resources whose
// contention slowed the workloads there. On that VM the four together
// explained most of the drift: over eight runs of one seed, the spread of the
// median pass wall between quartiles fell from 18–27% raw to 4–7% scaled,
// where any one of the four alone left 6–15%.

// refNominal is the reference kernel's time at the reference speed, about
// its time on that VM in a quiet minute.
const refNominal = 0.1 // seconds

// refTable is the kernel's 64 MB working set, allocated on first use: only
// the parent times the kernel, so passes' peak RSS does not include it.
var refTable []uint32

// refSink keeps the kernel's results live.
var refSink uint64

// refKernel runs the reference kernel once and returns its time in seconds.
func refKernel() float64 {
	if refTable == nil {
		refTable = make([]uint32, 16<<20)
		n := uint64(len(refTable))
		for i := range refTable {
			refTable[i] = uint32(uint64(i) * 2654435761 % n) // a scattered permutation
		}
	}
	t := time.Now()
	// Arithmetic: a dependent xorshift chain.
	x, s := uint64(88172645463325252), uint64(0)
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += x * 0x9E3779B97F4A7C15
	}
	// DRAM latency: dependent loads across the table.
	n := uint32(len(refTable))
	var j uint32
	for i := 0; i < 150_000; i++ {
		j = (refTable[j] ^ uint32(i)) % n
	}
	// DRAM bandwidth: stream the table twice.
	var sum uint32
	for r := 0; r < 2; r++ {
		for _, v := range refTable {
			sum += v
		}
	}
	// L2-sized random access: dependent loads within the first 2 MB.
	var k uint32
	for i := 0; i < 1_500_000; i++ {
		k = (refTable[k] ^ uint32(i)) & (1<<19 - 1)
	}
	refSink += s + uint64(j) + uint64(sum) + uint64(k)
	return time.Since(t).Seconds()
}

// speedScale is the factor that takes a host time measured between two
// kernel runs of before and after seconds to the reference speed.
func speedScale(before, after float64) float64 {
	return refNominal / ((before + after) / 2)
}

// rescale takes a pass's host times — its wall, its epoch gaps and its
// per-layer times — to the reference speed, keeping the raw wall and the
// kernel time for the report.
func (p *passResult) rescale(before, after float64) {
	f := speedScale(before, after)
	p.rawWallS, p.refS = p.WallS, (before+after)/2
	p.WallS *= f
	for i := range p.GapsMS {
		p.GapsMS[i] *= f
	}
	for _, m := range perLayer {
		if _, ok := p.Layers[m.name]; ok && (m.unit == "ms" || m.unit == "us" || m.unit == "ns") {
			p.Layers[m.name] *= f
		}
	}
}
