package main

import (
	"runtime"
	"sync"
	"time"
)

// tally is one rx or tx client's account of a phase.
type tally struct {
	lat        []float64 // untraced requests in completion order, seconds
	blocks     []block   // untraced requests per block of completion time
	tracedLat  []float64 // traced requests, seconds
	ok, failed int64
	symbols    int64 // DATA symbols of the traced requests
	problems   []string
	rec        *recorder // nil in untraced phases
}

// block counts the untraced requests that completed in one block.
type block struct {
	n, ok int     // requests, and the successful ones
	air   float64 // air time of the successful ones, seconds
}

// add records one request that completed at (seconds since the phase
// started) after d seconds. A failed request counts as missing every
// latency figure: its latency is the whole window.
func (t *tally) add(traced bool, at, d, window, air float64, ok bool) {
	if ok {
		t.ok++
	} else {
		t.failed++
		d = window
	}
	if traced {
		t.tracedLat = append(t.tracedLat, d)
		return
	}
	k := int(at / blockSeconds)
	for len(t.blocks) <= k {
		t.blocks = append(t.blocks, block{})
	}
	b := &t.blocks[k]
	b.n++
	if ok {
		b.ok++
		b.air += air
	}
	t.lat = append(t.lat, d)
}

// problem records a correctness failure, keeping the first few.
func (t *tally) problem(msg string) {
	if len(t.problems) < 5 {
		t.problems = append(t.problems, msg)
	}
}

// closedLoop is one timed phase of the rx or tx clients, merged.
type closedLoop struct {
	clients    []*tally
	delta      phaseDelta
	cpu        []float64 // CPU seconds at each block boundary
	ok, failed int64
	symbols    int64
}

// runClients runs loop on n client goroutines for seconds, then merges
// their tallies. maxRate bounds one client's requests per second, for
// sizing its latency samples.
func runClients(n int, seconds, maxRate float64, traced bool, epoch time.Time,
	loop func(c int, start, deadline time.Time, t *tally)) *closedLoop {
	p := &closedLoop{clients: make([]*tally, n)}
	for c := range p.clients {
		p.clients[c] = &tally{lat: samples(int(seconds * maxRate))}
		if traced {
			p.clients[c].rec = newRecorder(epoch)
			p.clients[c].tracedLat = samples(int(seconds * maxRate))
		}
	}
	runtime.GC()
	ph := startPhase()
	clock := startCPUClock(ph.wall)
	deadline := ph.wall.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := range p.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			loop(c, ph.wall, deadline, p.clients[c])
		}(c)
	}
	wg.Wait()
	p.delta = ph.since()
	p.cpu = clock.finish()
	for _, t := range p.clients {
		p.ok += t.ok
		p.failed += t.failed
		p.symbols += t.symbols
	}
	return p
}

// report adds the phase's counts and check failures to rep.
func (p *closedLoop) report(rep *report) {
	rep.attempted += p.ok + p.failed
	rep.failed += p.failed
	for _, t := range p.clients {
		for _, msg := range t.problems {
			rep.fail("%s", msg)
		}
	}
}

func (p *closedLoop) recorders() []*recorder {
	recs := make([]*recorder, len(p.clients))
	for i, t := range p.clients {
		recs[i] = t.rec
	}
	return recs
}

// meanLat is the mean latency of the untraced or the traced requests.
func (p *closedLoop) meanLat(traced bool) float64 {
	var sum float64
	var n int
	for _, t := range p.clients {
		lat := t.lat
		if traced {
			lat = t.tracedLat
		}
		for _, d := range lat {
			sum += d
		}
		n += len(lat)
	}
	return sum / float64(n)
}

// traced is how many traced requests the phase made.
func (p *closedLoop) traced() int {
	n := 0
	for _, t := range p.clients {
		n += len(t.tracedLat)
	}
	return n
}
