package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sledzig"
	"sledzig/internal/engine"
	"sledzig/internal/fault"
)

// overloadReport is the health-snapshot artifact -health-out writes: the
// terminal /debug/health document plus the soak's own accounting, so CI
// can archive one JSON file that explains the run.
type overloadReport struct {
	DurationSeconds float64 `json:"duration_seconds"`
	Workers         int     `json:"workers"`
	Producers       int     `json:"producers"`

	Accepted      int     `json:"accepted"`
	Stalled       int     `json:"stalled"`
	UnloadedP99Ms float64 `json:"unloaded_p99_ms"`
	AcceptedP99Ms float64 `json:"accepted_p99_ms"`
	LatencyBound  float64 `json:"latency_bound_ms"`

	Rejections map[string]int `json:"rejections"`
	Untyped    int            `json:"untyped"`

	BreakerOpened   uint64 `json:"breaker_opened"`
	BreakerReclosed uint64 `json:"breaker_reclosed"`
	StormPanics     uint64 `json:"storm_panics"`
	StormStalls     uint64 `json:"storm_stalls"`

	HealthyEngine  sledzig.EngineHealthReport `json:"healthy_engine"`
	PoisonedEngine sledzig.EngineHealthReport `json:"poisoned_engine"`
	HealthyDrain   sledzig.DrainReport        `json:"healthy_drain"`
	PoisonedDrain  sledzig.DrainReport        `json:"poisoned_drain"`

	// The stalled-consumer clients: results they read before stalling,
	// their outcomes the healthy drain abandoned, and how long that drain
	// took against its 10s deadline.
	StalledRead         int     `json:"stalled_clients_read"`
	StalledAbandoned    int     `json:"stalled_clients_abandoned"`
	HealthyDrainSeconds float64 `json:"healthy_drain_seconds"`

	// DebugHealth is the raw /debug/health body captured mid-run, the
	// exact document a gateway would poll.
	DebugHealth json.RawMessage `json:"debug_health"`
}

// shedLabel classifies a rejection against the public taxonomy; the empty
// string marks an error outside it (the failure the soak exists to catch).
func shedLabel(err error) string {
	switch {
	case errors.Is(err, sledzig.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, sledzig.ErrDraining):
		return "draining"
	case errors.Is(err, sledzig.ErrCircuitOpen):
		return "circuit-open"
	case errors.Is(err, sledzig.ErrFramePanicked):
		return "frame-panicked"
	case errors.Is(err, sledzig.ErrFrameDeadline):
		return "frame-deadline"
	case errors.Is(err, sledzig.ErrEngineClosed):
		return "engine-closed"
	case errors.Is(err, sledzig.ErrPayloadTooLarge):
		return "payload-too-large"
	}
	return ""
}

// stallClient is a stream consumer that stops reading partway: it feeds
// item into a stream from open and reads the results until stallAt
// (reopening the stream whenever the engine ends it), then stops reading
// while it keeps feeding. Overload sheds can still cut the stream short,
// so after the stall a stream that has taken no input for half a second
// is replaced by a fresh one, also unread. Everything stays open until ctx
// is cancelled. Every result read is counted in read.
func stallClient[I, O any](ctx context.Context, stallAt time.Time, item I, open func(context.Context, <-chan I) <-chan O, read *atomic.Int64) {
	in := make(chan I)
	out := open(ctx, in)
	stall := time.NewTimer(time.Until(stallAt))
	defer stall.Stop()
reading:
	for {
		select {
		case <-ctx.Done():
			return
		case <-stall.C:
			break reading
		case in <- item:
		case _, ok := <-out:
			if !ok {
				in = make(chan I)
				out = open(ctx, in)
				continue
			}
			read.Add(1)
		}
	}
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	taken := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case in <- item:
			taken = time.Now()
		case <-tick.C:
			if time.Since(taken) >= 500*time.Millisecond {
				in = make(chan I)
				open(ctx, in)
				taken = time.Now()
			}
		}
	}
}

func percentileMs(samples []time.Duration, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// runOverload is the -overload soak: a healthy decode engine under ≥4×
// offered load plus a storm-poisoned encode engine, asserting
// shed-not-stall — every rejection typed, accepted latency bounded,
// breaker transitions visible, bounded drain, zero leaked goroutines.
func runOverload(duration time.Duration, seed int64, workers int, healthOut string) {
	reg := sledzig.NewMetrics()
	sledzig.SetDefaultMetrics(reg)
	baseline := runtime.NumGoroutine()

	cfg := sledzig.Config{Modulation: sledzig.QAM16, CodeRate: sledzig.Rate12, Channel: sledzig.CH2}

	// One clean waveform all decode producers share.
	enc, err := sledzig.NewEncoder(cfg)
	if err != nil {
		log.Fatalf("overload: encoder: %v", err)
	}
	payload := make([]byte, 120)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	frame, err := enc.Encode(payload)
	if err != nil {
		log.Fatalf("overload: encode: %v", err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		log.Fatalf("overload: waveform: %v", err)
	}

	// Unloaded baseline: batch-1 decodes on an uncapped engine at the same
	// concurrency the soak will use (one submitter per worker), so the
	// baseline carries the same scheduling and race-detector overhead as
	// the loaded measurement it bounds.
	warm, err := sledzig.NewEngine(sledzig.EngineConfig{Config: cfg, Workers: workers})
	if err != nil {
		log.Fatalf("overload: warmup engine: %v", err)
	}
	var (
		warmMu   sync.Mutex
		unloaded []time.Duration
		warmWG   sync.WaitGroup
	)
	for p := 0; p < workers; p++ {
		warmWG.Add(1)
		go func() {
			defer warmWG.Done()
			for i := 0; i < 48; i++ {
				t0 := time.Now()
				outs := warm.DecodeEach(context.Background(), [][]complex128{wave})
				if outs[0].Err != nil {
					log.Fatalf("overload: clean decode failed: %v", outs[0].Err)
				}
				took := time.Since(t0)
				warmMu.Lock()
				unloaded = append(unloaded, took)
				warmMu.Unlock()
			}
		}()
	}
	warmWG.Wait()
	warm.Close()
	p99Unloaded := percentileMs(unloaded, 0.99)

	maxWait := time.Duration(p99Unloaded * float64(time.Millisecond))
	if maxWait < 5*time.Millisecond {
		maxWait = 5 * time.Millisecond
	}
	if maxWait > 250*time.Millisecond {
		maxWait = 250 * time.Millisecond
	}

	healthy, err := sledzig.NewEngine(sledzig.EngineConfig{
		Config:       cfg,
		Workers:      workers,
		Queue:        workers,
		FrameTimeout: 2 * time.Second,
		MaxQueueWait: maxWait,
		MaxInflight:  workers,
	})
	if err != nil {
		log.Fatalf("overload: healthy engine: %v", err)
	}

	// The poisoned backend: an ofdmfi encode engine whose frames a seeded
	// storm panics or stalls, behind a breaker and tight caps.
	poisonCfg := sledzig.Config{
		Modulation: sledzig.QAM16, CodeRate: sledzig.Rate12, Channel: sledzig.CH2,
		Codec: sledzig.CodecOfdmFi,
	}
	poisoned, err := sledzig.NewEngine(sledzig.EngineConfig{
		Config:              poisonCfg,
		Workers:             workers,
		Queue:               workers,
		FrameTimeout:        25 * time.Millisecond,
		MaxQueueWait:        50 * time.Millisecond,
		MaxInflight:         2 * workers,
		MaxAbandonedWorkers: 8,
		Breaker: sledzig.BreakerConfig{
			Window: 32, MinSamples: 8, FailureRate: 0.4,
			Cooldown: 250 * time.Millisecond, Probes: 3,
		},
	})
	if err != nil {
		log.Fatalf("overload: poisoned engine: %v", err)
	}

	storm := fault.NewStorm(seed, 0.30, 0.20, 100*time.Millisecond)
	engine.SetFrameHook(func(info engine.FrameHookInfo) {
		if info.Codec == sledzig.CodecOfdmFi {
			storm.Strike()
		}
	})
	defer engine.SetFrameHook(nil)

	var (
		mu         sync.Mutex
		accepted   []time.Duration
		stalled    int
		untyped    int
		untypedMsg string
		rejections = map[string]int{}
	)
	// latency=true only for healthy-engine calls: the poisoned engine's
	// accepted frames are deliberately slow (storm stalls, frame timeouts
	// in the same batch) and say nothing about admission keeping the
	// healthy path's latency bounded.
	record := func(took time.Duration, err error, latency bool) {
		mu.Lock()
		defer mu.Unlock()
		if took > 5*time.Second {
			stalled++
		}
		if err == nil {
			if latency {
				accepted = append(accepted, took)
			}
			return
		}
		if label := shedLabel(err); label != "" {
			rejections[label]++
			return
		}
		untyped++
		if untypedMsg == "" {
			untypedMsg = err.Error()
		}
	}

	stop := time.Now().Add(duration)
	producers := 4 * workers
	var wg sync.WaitGroup

	// Stalled consumers on the healthy engine: one facade Stream and one
	// DecodeStream client stop reading halfway through the soak. The final
	// drain must still return within its deadline.
	stallCtx, stallCancel := context.WithCancel(context.Background())
	defer stallCancel()
	stallAt := time.Now().Add(duration / 2)
	var stallWG sync.WaitGroup
	var stalledRead atomic.Int64
	stallWG.Add(2)
	go func() {
		defer stallWG.Done()
		stallClient(stallCtx, stallAt, payload, healthy.Stream, &stalledRead)
	}()
	go func() {
		defer stallWG.Done()
		stallClient(stallCtx, stallAt, wave, healthy.DecodeStream, &stalledRead)
	}()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				t0 := time.Now()
				outs := healthy.DecodeEach(context.Background(), [][]complex128{wave})
				record(time.Since(t0), outs[0].Err, true)
				if outs[0].Err != nil {
					// Back off like a real client on a 429: keeps offered
					// load far above capacity without the shed loop
					// starving the workers of CPU.
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
	}
	smallPayload := []byte{0xde, 0xad, 0xbe, 0xef}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([][]byte, 8)
			for i := range batch {
				batch[i] = smallPayload
			}
			for time.Now().Before(stop) {
				t0 := time.Now()
				outs := poisoned.EncodeEach(context.Background(), batch)
				took := time.Since(t0)
				allRejected := true
				for _, o := range outs {
					record(took/time.Duration(len(outs)), o.Err, false)
					allRejected = allRejected && o.Err != nil
				}
				if allRejected {
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()

	// Capture the gateway's view while both engines are still live: the
	// literal /debug/health document off the diagnostics mux.
	rr := httptest.NewRecorder()
	reg.NewMux().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/health", nil))
	debugHealth := json.RawMessage(rr.Body.Bytes())
	healthySnap := healthy.HealthReport()
	poisonedSnap := poisoned.HealthReport()

	// With the load gone, give the stalled clients up to 5s to park a
	// frame in delivery (one held for 200ms, not a frame in passing), so
	// the drain below has an outcome to abandon.
	held := time.Duration(0)
	for parked := time.Now().Add(5 * time.Second); held < 200*time.Millisecond && time.Now().Before(parked); {
		time.Sleep(20 * time.Millisecond)
		held += 20 * time.Millisecond
		if healthy.HealthReport().Inflight == 0 {
			held = 0
		}
	}
	const drainDeadline = 10 * time.Second
	drainCtx, cancel := context.WithTimeout(context.Background(), drainDeadline)
	defer cancel()
	drainStart := time.Now()
	healthyDrain := healthy.Drain(drainCtx)
	healthyDrainTook := time.Since(drainStart)
	poisonCtx, poisonCancel := context.WithTimeout(context.Background(), drainDeadline)
	defer poisonCancel()
	poisonedDrain := poisoned.Drain(poisonCtx)

	rep := overloadReport{
		DurationSeconds: duration.Seconds(),
		Workers:         workers,
		Producers:       producers,
		Accepted:        len(accepted),
		Stalled:         stalled,
		UnloadedP99Ms:   p99Unloaded,
		AcceptedP99Ms:   percentileMs(accepted, 0.99),
		Rejections:      rejections,
		Untyped:         untyped,
		BreakerOpened:   reg.Counter("engine.breaker.opened").Value(),
		BreakerReclosed: reg.Counter("engine.breaker.reclosed").Value(),
		StormPanics:     storm.Panics(),
		StormStalls:     storm.Stalls(),
		HealthyEngine:   healthySnap,
		PoisonedEngine:  poisonedSnap,
		HealthyDrain:    healthyDrain,
		PoisonedDrain:   poisonedDrain,
		DebugHealth:     debugHealth,

		StalledRead:         int(stalledRead.Load()),
		StalledAbandoned:    healthyDrain.Abandoned,
		HealthyDrainSeconds: healthyDrainTook.Seconds(),
	}
	rep.LatencyBound = 2 * p99Unloaded
	if rep.LatencyBound < 50 {
		rep.LatencyBound = 50
	}

	fmt.Printf("chaos overload: %d accepted, %d stalled, %d untyped over %v (%d workers, %d producers)\n",
		rep.Accepted, stalled, untyped, duration, workers, producers)
	fmt.Printf("  latency: unloaded p99 %.2fms, loaded accepted p99 %.2fms (bound %.2fms)\n",
		rep.UnloadedP99Ms, rep.AcceptedP99Ms, rep.LatencyBound)
	fmt.Println("  rejections by taxonomy:")
	labels := make([]string, 0, len(rejections))
	for l := range rejections {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Printf("    %-16s %8d\n", l, rejections[l])
	}
	fmt.Printf("  breaker: opened %d times, re-closed %d times; storm: %d panics, %d stalls\n",
		rep.BreakerOpened, rep.BreakerReclosed, rep.StormPanics, rep.StormStalls)
	fmt.Printf("  stalled clients: read %d results, %d outcomes abandoned by the healthy drain\n",
		rep.StalledRead, rep.StalledAbandoned)
	fmt.Printf("  drains: healthy %+v in %v, poisoned %+v\n", healthyDrain, healthyDrainTook.Round(time.Millisecond), poisonedDrain)

	if healthOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(healthOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "health snapshot write failed: %v\n", err)
		} else {
			fmt.Printf("  health snapshot written to %s\n", healthOut)
		}
	}

	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "\nFAIL: "+format+"\n", args...)
		failed = true
	}
	if stalled > 0 {
		fail("%d submissions stalled past 5s — admission control failed to shed", stalled)
	}
	if untyped > 0 {
		fail("%d rejections outside the public taxonomy (first: %s)", untyped, untypedMsg)
	}
	if len(accepted) == 0 {
		fail("no frames accepted — the engine shed everything")
	}
	if rep.AcceptedP99Ms > rep.LatencyBound {
		fail("accepted p99 %.2fms exceeds bound %.2fms — backlog leaked into accepted frames",
			rep.AcceptedP99Ms, rep.LatencyBound)
	}
	if rejections["overloaded"] == 0 {
		fail("offered 4x capacity but nothing shed ErrOverloaded — admission gate inert")
	}
	if rep.BreakerOpened == 0 {
		fail("storm-poisoned backend never tripped the breaker")
	}
	if rejections["circuit-open"] == 0 {
		fail("breaker tripped but no submission failed fast with ErrCircuitOpen")
	}
	// A stalled consumer must not hold the drain past its deadline (a
	// small grace covers scheduling).
	if healthyDrainTook > drainDeadline+250*time.Millisecond {
		fail("healthy drain took %v with stalled stream consumers, past its %v deadline",
			healthyDrainTook.Round(time.Millisecond), drainDeadline)
	}

	// Release the stalled clients before the leak check.
	stallCancel()
	stallWG.Wait()

	// Abandoned storm stalls finish within their 100ms; give stragglers a
	// moment, then hold the zero-leak line.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		fail("goroutine leak (%d now vs %d at start)", n, baseline)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("\nPASS: shed not stalled — typed rejections, bounded latency, breaker cycled, drain within its deadline, no leaks")
}
