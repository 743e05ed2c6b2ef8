package main

import "time"

// blockSeconds is the length of the blocks an rx or tx run is cut into.
// Rates, CPU costs and latency percentiles are taken per block and
// reported at the slow end of the run's whole blocks (slowCost,
// slowRate, slowTail), so bursts of extra host speed move the result less than they
// would move a figure over the whole run. An rx block holds over a
// thousand requests and a tx block about ten thousand, so a block's 99th
// percentile has at least ten samples beyond it.
const blockSeconds = 1.0

// cpuClock samples the process CPU time at every block boundary of a
// phase, from a goroutine that finish stops and waits for.
type cpuClock struct {
	cpu  []float64 // cpu[k] at the start of block k
	stop chan struct{}
	done chan struct{}
}

func startCPUClock(start time.Time) *cpuClock {
	c := &cpuClock{cpu: []float64{cpuSeconds()}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for k := 1; ; k++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(float64(k) * blockSeconds * float64(time.Second)))))
			select {
			case <-c.stop:
				t.Stop()
				return
			case <-t.C:
				c.cpu = append(c.cpu, cpuSeconds())
			}
		}
	}()
	return c
}

// finish stops the clock and returns the samples.
func (c *cpuClock) finish() []float64 {
	close(c.stop)
	<-c.done
	return c.cpu
}

// samples returns an empty slice with room for n latencies whose memory
// is already resident, so recording samples does not grow the RSS the
// run reports.
func samples(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 0
	}
	return s[:0]
}

// blockMetrics sets the rx and tx end-to-end metrics: throughput, CPU
// cost and latency percentiles are taken per whole block and reported at
// the slow end of the blocks.
func blockMetrics(rep *report, p *closedLoop) {
	var rate, cpuPerFrame, cpuPerAir, airRate, p50, p99, lat []float64
	next := make([]int, len(p.clients)) // each client's first sample of block k
	for k := 0; k+1 < len(p.cpu); k++ {
		lat = lat[:0]
		var ok int
		var air float64
		for i, t := range p.clients {
			if k >= len(t.blocks) {
				continue
			}
			b := t.blocks[k]
			lat = append(lat, t.lat[next[i]:next[i]+b.n]...)
			next[i] += b.n
			ok += b.ok
			air += b.air
		}
		if ok == 0 {
			continue
		}
		c := p.cpu[k+1] - p.cpu[k]
		rate = append(rate, float64(ok)/blockSeconds)
		cpuPerFrame = append(cpuPerFrame, c/float64(ok))
		cpuPerAir = append(cpuPerAir, c/air)
		airRate = append(airRate, air/blockSeconds)
		p50 = append(p50, percentile(lat, 50))
		p99 = append(p99, percentile(lat, 99))
	}
	rep.set("frames_per_s", slowRate(rate))
	rep.set("frame_p50_ms", slowCost(p50)*1e3)
	rep.set("frame_p99_ms", slowTail(p99)*1e3)
	rep.set("cpu_ms_per_frame", slowCost(cpuPerFrame)*1e3)
	rep.set("cpu_s_per_sim_s", slowCost(cpuPerAir))
	rep.set("sim_s_per_s", slowRate(airRate))
	rep.set("failed_frac", frac(rep.failed, rep.attempted))
}
