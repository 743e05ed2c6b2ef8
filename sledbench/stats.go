package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// slowPercentile is where, counted from the slow end, a run reads a
// figure off its per-block values. The host this benchmark was written on
// alternates between a steady slow state and bursts of extra speed, and
// how much of a run the bursts cover varies from run to run, so the slow
// end of a run repeats more closely than its middle does. The 90th
// percentile, not the slowest block, keeps one stalled block out.
const slowPercentile = 90

// tailPercentile is where a run reads a per-block tail latency. A stall
// of a fraction of a second raises a block's 99th percentile without
// moving its median, so stalled blocks crowd the slow end of the tails;
// the 75th percentile keeps up to a quarter of the blocks out.
const tailPercentile = 75

// slowCost is a run's figure for a per-block latency median or cost.
func slowCost(xs []float64) float64 { return percentile(xs, slowPercentile) }

// slowRate is a run's figure for a per-block rate.
func slowRate(xs []float64) float64 { return percentile(xs, 100-slowPercentile) }

// slowTail is a run's figure for a per-block tail latency.
func slowTail(xs []float64) float64 { return percentile(xs, tailPercentile) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(t syscall.Timeval) float64 {
	return float64(t.Sec) + float64(t.Usec)/1e6
}

// rssSampler tracks the largest resident set size seen while a run
// measures, sampled every rssEvery from a goroutine stop waits for.
type rssSampler struct {
	peak float64 // MiB
	stop chan struct{}
	done chan struct{}
}

const rssEvery = 50 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{peak: rssMB(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.peak = math.Max(s.peak, rssMB())
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return math.Max(s.peak, rssMB())
}

// rssMB is the process's current resident set size in MiB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

// phase snapshots the process counters a measured phase is judged by:
// allocations and the runtime's CPU accounting.
type phase struct {
	wall    time.Time
	mallocs uint64
	bytes   uint64
	gcCPU   float64
	usedCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func startPhase() phase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return phase{
		wall:    time.Now(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcCPU:   cpuSamples[0].Value.Float64(),
		usedCPU: cpuSamples[1].Value.Float64() - cpuSamples[2].Value.Float64(),
	}
}

// phaseDelta is what happened between two phase snapshots.
type phaseDelta struct {
	mallocs, bytes float64
	gcFrac         float64 // GC CPU over the CPU the Go runtime used
}

func (p phase) since() phaseDelta {
	q := startPhase()
	d := phaseDelta{
		mallocs: float64(q.mallocs - p.mallocs),
		bytes:   float64(q.bytes - p.bytes),
	}
	if used := q.usedCPU - p.usedCPU; used > 0 {
		d.gcFrac = (q.gcCPU - p.gcCPU) / used
	}
	return d
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout; sourceHash identifies the code otherwise.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceHash digests every .go and go.mod file under root (skipping
// hidden directories), so runs of identical code can be matched without a
// VCS.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
