package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sledzig"
	"sledzig/internal/core"
	"sledzig/internal/exp"
	"sledzig/internal/mac"
	"sledzig/internal/wifi"
)

// reproPointSeconds is the simulated time of each operating point. The
// checks read means over every pass of a run, so one pass suffices.
const reproPointSeconds = 1.0

// reproStage is one figure of the sweep: its WiFi profiles are derived
// once per variant on the stage's channel, then its points run. The
// caller waits for each stage, as cmd/experiments waits for each figure.
type reproStage struct {
	name     string
	ch       core.ZigBeeChannel
	variants []exp.Variant
	points   []reproPoint
}

// reproPoint is one mac.Run: cfg lacks only Seed and Profile.
type reproPoint struct {
	variant int
	x       float64 // distance (m), duty ratio, or node count
	tag     string  // distinguishes points sharing variant and x
	cfg     mac.Config
}

// reproStages lays out the sweep: Fig. 14 on a pilot channel (CH3) and on
// CH4, Fig. 15, Fig. 16 with SledZig on and off, and fleet points with
// several nodes, ACKs and periodic traffic.
func reproStages() []reproStage {
	paper := exp.PaperVariants()
	var stages []reproStage
	add := func(st *reproStage, v int, x float64, tag string, cfg mac.Config) {
		cfg.Duration = reproPointSeconds
		cfg.WiFiMode = st.variants[v].Mode
		st.points = append(st.points, reproPoint{variant: v, x: x, tag: tag, cfg: cfg})
	}
	fig14 := func(name string, ch core.ZigBeeChannel, ds []float64) {
		st := reproStage{name: name, ch: ch, variants: paper}
		for v := range paper {
			for _, d := range ds {
				add(&st, v, d, "", mac.Config{DWZ: d, DZ: 1, WiFiFrameAirtime: 20e-3, DutyRatio: 1, CCAMode: mac.CCAEnergy})
			}
		}
		stages = append(stages, st)
	}
	fig14("fig14a", core.CH3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	fig14("fig14b", core.CH4, []float64{1, 1.5, 2, 2.5, 3, 4, 5, 6, 7})

	st := reproStage{name: "fig15", ch: core.CH4, variants: paper}
	for v := range paper {
		for _, dz := range []float64{1, 1.2, 1.4, 1.6, 1.8, 2} {
			add(&st, v, dz, "", mac.Config{DWZ: 6, DZ: dz, DutyRatio: 1, WiFiPayload: 1500, CCAMode: mac.CCAEnergy})
		}
	}
	stages = append(stages, st)

	st = reproStage{name: "fig16", ch: core.CH3, variants: paper}
	for v := range paper {
		for _, duty := range []float64{0.2, 0.4, 0.7, 0.9} {
			for run := 0; run < 2; run++ {
				add(&st, v, duty, fmt.Sprint(run), mac.Config{DWZ: 1, DZ: 0.5, WiFiFrameAirtime: 6e-3, DutyRatio: duty, CCAMode: mac.CCACarrierOnly})
			}
		}
	}
	stages = append(stages, st)

	q256 := wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}
	st = reproStage{name: "fleet", ch: core.CH3, variants: []exp.Variant{
		{Name: "Stock", Mode: q256},
		{Name: "SledZig", Mode: q256, SledZig: true},
	}}
	for v := range st.variants {
		fleet := mac.Config{DWZ: 3, DZ: 1, WiFiFrameAirtime: 20e-3, DutyRatio: 1, CCAMode: mac.CCAEnergy, UseAcks: true}
		for _, n := range []int{1, 4} {
			fleet.ZigBeeNodes = n
			add(&st, v, float64(n), "saturated", fleet)
		}
		fleet.ZigBeeNodes, fleet.ZigBeeInterval = 4, reproFleetInterval
		add(&st, v, 4, "periodic", fleet)
	}
	return append(stages, st)
}

// reproFleetInterval is each periodic fleet node's reporting interval.
const reproFleetInterval = 0.05

// reproInputs is empty: the sweep's operating points are fixed and the
// seed only selects the random streams of DeriveProfile and mac.Run.
type reproInputs struct{}

type reproWorkload struct {
	seed    int64
	workers int
	stages  []reproStage
}

func newRepro(seed int64) workload {
	return &reproWorkload{seed: seed, workers: runtime.GOMAXPROCS(0), stages: reproStages()}
}

func (w *reproWorkload) gen() (any, error) { return &reproInputs{}, nil }

// setup installs the metrics registry, derives every paper variant's
// profile on both channels, and simulates half a second of a link that
// gets frames through, which builds the PHY and chip-error tables. The
// warm-up uses a fixed seed, so its work is the same for every --seed.
func (w *reproWorkload) setup(any) error {
	sledzig.SetDefaultMetrics(sledzig.NewMetrics())
	var p mac.WiFiProfile
	for _, ch := range []core.ZigBeeChannel{core.CH3, core.CH4} {
		for _, v := range exp.PaperVariants() {
			var err error
			if p, err = exp.DeriveProfile(wifi.ConventionIEEE, v, ch, 1); err != nil {
				return err
			}
		}
	}
	// p is QAM-256 on CH4, which ZigBee survives at 3 m (Fig. 14(b)).
	_, err := mac.Run(mac.Config{
		Seed: 1, Duration: 0.5, DWZ: 3, DZ: 1, Profile: p,
		WiFiMode:         wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34},
		WiFiFrameAirtime: 20e-3, DutyRatio: 1, CCAMode: mac.CCAEnergy,
	})
	return err
}

func (w *reproWorkload) close() {}

// pointResult is what the checks and counts read from one mac.Run.
type pointResult struct {
	kbps                       float64
	zbSent, zbDelivered, wSent int
}

// passSeed is the base seed of pass p, the same in every phase.
func (w *reproWorkload) passSeed(p int) int64 { return w.seed*1_000_003 + int64(p)*7919 }

// reproPhase accumulates passes.
type reproPhase struct {
	passes   int
	lat      []float64 // per untraced stage, seconds
	points   int       // untraced points
	delta    phaseDelta
	sums     [][]float64   // per stage, per point: summed kbit/s
	first    []pointResult // pass 0, whose seeds every run repeats
	recs     []*recorder   // traced passes, one recorder per worker
	calls    int64         // DeriveProfile and mac.Run calls
	failed   int64
	problems []string

	// Traced passes repeat the untraced ones seed for seed.
	tracedPasses int
	tracedWall   float64
	untracedWall float64
	passWall     []float64 // each untraced pass, seconds
	passCPU      []float64
	passP50      []float64 // each untraced pass's stage latency percentiles
	passP99      []float64
	tracedPoints int
	tracedZbSent int // ZigBee frames the traced passes simulated
}

// fanout runs fn(worker, i) for i in [0, n) across the workers and waits.
func (w *reproWorkload) fanout(n int, fn func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w.workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(g, i)
			}
		}(g)
	}
	wg.Wait()
}

// pass runs every stage once: profiles, then points, each fanned out.
// With recorders it records spans around every layer call.
func (w *reproWorkload) pass(p int, ph *reproPhase, recs []*recorder) {
	seed := w.passSeed(p)
	for si := range w.stages {
		st := &w.stages[si]
		t0 := time.Now()
		profiles := make([]mac.WiFiProfile, len(st.variants))
		errs := make([]error, len(st.points)+len(st.variants))
		w.fanout(len(st.variants), func(g, v int) {
			rec := recorderFor(recs, g)
			req := int64(p)<<40 | int64(si)<<32 | int64(1)<<31 | int64(v)
			root := rec.begin("repro.profile", req, -1)
			h := rec.begin("exp.profile", req, root)
			profiles[v], errs[v] = exp.DeriveProfile(wifi.ConventionIEEE, st.variants[v], st.ch, seed)
			rec.end(h)
			rec.end(root)
		})
		results := make([]pointResult, len(st.points))
		w.fanout(len(st.points), func(g, i int) {
			rec := recorderFor(recs, g)
			req := int64(p)<<40 | int64(si)<<32 | int64(i)
			root := rec.begin("repro.point", req, -1)
			pt := &st.points[i]
			cfg := pt.cfg
			cfg.Seed = seed + int64(si)*1000 + int64(i)
			cfg.Profile = profiles[pt.variant]
			h := rec.begin("mac.run", req, root)
			res, err := mac.Run(cfg)
			rec.end(h)
			if err != nil {
				errs[len(st.variants)+i] = err
			} else {
				results[i] = pointResult{kbps: res.ZigBeeThroughputBps / 1e3, zbSent: res.ZigBeeSent, zbDelivered: res.ZigBeeDelivered, wSent: res.WiFiFramesSent}
			}
			rec.end(root)
		})
		stageLat := time.Since(t0).Seconds()
		ph.calls += int64(len(errs))
		for _, err := range errs {
			if err != nil {
				ph.failed++
				if len(ph.problems) < 5 {
					ph.problems = append(ph.problems, fmt.Sprintf("repro %s: %v", st.name, err))
				}
			}
		}
		if ph.sums[si] == nil {
			ph.sums[si] = make([]float64, len(st.points))
		}
		for i, r := range results {
			ph.sums[si][i] += r.kbps
			switch {
			case recs != nil:
				ph.tracedZbSent += r.zbSent
			case p == 0:
				ph.first = append(ph.first, r)
			}
		}
		if recs != nil {
			ph.tracedPoints += len(st.points)
			continue
		}
		ph.lat = append(ph.lat, stageLat)
		ph.points += len(st.points)
	}
}

func recorderFor(recs []*recorder, g int) *recorder {
	if recs == nil {
		return nil
	}
	return recs[g]
}

// run repeats whole passes until seconds have elapsed. A traced run
// follows each untraced pass with a traced pass of the same seeds, so
// both see the same work at nearly the same moment.
func (w *reproWorkload) run(seconds float64, traced bool, epoch time.Time) *reproPhase {
	ph := &reproPhase{sums: make([][]float64, len(w.stages))}
	if traced {
		for g := 0; g < w.workers; g++ {
			ph.recs = append(ph.recs, newRecorder(epoch))
		}
	}
	runtime.GC()
	start := startPhase()
	deadline := start.wall.Add(time.Duration(seconds * float64(time.Second)))
	for p := 0; p == 0 || time.Now().Before(deadline); p++ {
		t0, c0, n0 := time.Now(), cpuSeconds(), len(ph.lat)
		w.pass(p, ph, nil)
		t1 := time.Now()
		ph.passWall = append(ph.passWall, t1.Sub(t0).Seconds())
		ph.passCPU = append(ph.passCPU, cpuSeconds()-c0)
		ph.passP50 = append(ph.passP50, percentile(ph.lat[n0:], 50))
		ph.passP99 = append(ph.passP99, percentile(ph.lat[n0:], 99))
		ph.untracedWall += t1.Sub(t0).Seconds()
		ph.passes++
		if traced {
			w.pass(p, ph, ph.recs)
			ph.tracedWall += time.Since(t1).Seconds()
			ph.tracedPasses++
		}
	}
	ph.delta = start.since()
	return ph
}

// means returns each point's throughput averaged over the phase's passes.
func (ph *reproPhase) means() [][]float64 {
	out := make([][]float64, len(ph.sums))
	for si, s := range ph.sums {
		out[si] = make([]float64, len(s))
		for i, v := range s {
			out[si][i] = v / float64(ph.passes+ph.tracedPasses)
		}
	}
	return out
}

func (ph *reproPhase) report(rep *report, stages []reproStage) {
	rep.attempted += ph.calls
	rep.failed += ph.failed
	for _, msg := range ph.problems {
		rep.fail("%s", msg)
	}
	if ph.failed == 0 {
		for _, msg := range checkRepro(stages, ph.means()) {
			rep.fail("repro: %s", msg)
		}
	}
}

func (w *reproWorkload) measure(seconds float64, traced bool, rep *report) error {
	epoch := time.Now()
	if !traced {
		ph := w.run(seconds, false, epoch)
		ph.report(rep, w.stages)
		// A request is one stage: the caller waits for each figure. Every
		// pass is the same work, so rates, CPU costs and latency
		// percentiles are taken per pass and reported at the slow end of
		// the run's passes, as rx and tx report their blocks.
		stages := float64(len(w.stages))
		sim := float64(ph.points/ph.passes) * reproPointSeconds
		var rate, cpuPerStage, cpuPerSim, simRate []float64
		for i, wall := range ph.passWall {
			rate = append(rate, stages/wall)
			cpuPerStage = append(cpuPerStage, ph.passCPU[i]/stages)
			cpuPerSim = append(cpuPerSim, ph.passCPU[i]/sim)
			simRate = append(simRate, sim/wall)
		}
		rep.set("frames_per_s", slowRate(rate))
		rep.set("frame_p50_ms", slowCost(ph.passP50)*1e3)
		rep.set("frame_p99_ms", slowTail(ph.passP99)*1e3)
		rep.set("cpu_ms_per_frame", slowCost(cpuPerStage)*1e3)
		rep.set("cpu_s_per_sim_s", slowCost(cpuPerSim))
		rep.set("sim_s_per_s", slowRate(simRate))
		rep.set("failed_frac", frac(rep.failed, rep.attempted))
		return nil
	}
	t := w.run(seconds, true, epoch)
	t.report(rep, w.stages)
	spans, stats := aggregate(t.recs)
	rep.spans = spans
	macRun, prof := get(stats, "mac.run"), get(stats, "exp.profile")
	busy := macRun.total + prof.total
	glue := get(stats, "repro.point").self + get(stats, "repro.profile").self
	var zbSent, zbDelivered, wSent int
	for _, r := range t.first {
		zbSent += r.zbSent
		zbDelivered += r.zbDelivered
		wSent += r.wSent
	}
	rep.set("mac.run.busy_s", macRun.total)
	rep.set("mac.run.calls", float64(macRun.count))
	rep.set("mac.us_per_zigbee_frame", macRun.total/float64(t.tracedZbSent)*1e6)
	rep.set("mac.run.point_p99_s", percentile(macRun.durs, 99))
	rep.set("exp.profile.busy_s", prof.total)
	rep.set("exp.profile.calls", float64(prof.count))
	rep.set("repro.fanout_idle_frac", 1-busy/(t.tracedWall*float64(w.workers)))
	rep.set("repro.unattributed_us_per_point", glue/float64(t.tracedPoints)*1e6)
	rep.set("mac.zigbee_frames", float64(zbSent))
	rep.set("mac.wifi_frames", float64(wSent))
	rep.set("mac.zigbee_delivered_frac", float64(zbDelivered)/float64(zbSent))
	rep.set("go.gc_cpu_frac", t.delta.gcFrac)
	rep.set("trace_overhead_frac", t.tracedWall/t.untracedWall-1)
	rep.set("failed_frac", frac(rep.failed, rep.attempted))
	return nil
}

// Tolerances of the repro checks against the EXPERIMENTS.md readings.
const (
	reproBaselineKbps = 63.4 // no-interference ZigBee throughput
	reproCrossTolM    = 1.0  // recovery distance, one grid step
)

// checkRepro applies the Fig. 14/15/16 and fleet ordering and tolerance
// checks of EXPERIMENTS.md to per-point mean throughputs (kbit/s), laid
// out as reproStages. It returns one message per failed check.
func checkRepro(stages []reproStage, means [][]float64) []string {
	var bad []string
	failf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	at := func(stage, variant string, x float64, tag string) float64 {
		for si, st := range stages {
			if st.name != stage {
				continue
			}
			for i, pt := range st.points {
				if st.variants[pt.variant].Name == variant && pt.x == x && pt.tag == tag {
					return means[si][i]
				}
			}
		}
		panic(fmt.Sprintf("no point %s/%s/%g/%s", stage, variant, x, tag))
	}
	// cross is the smallest swept x at which the variant reaches 90 % of
	// the baseline (+Inf if it never does).
	cross := func(stage, variant string) float64 {
		for si, st := range stages {
			if st.name != stage {
				continue
			}
			for i, pt := range st.points {
				if st.variants[pt.variant].Name == variant && means[si][i] >= 0.9*reproBaselineKbps {
					return pt.x
				}
			}
		}
		return math.Inf(1)
	}

	// Fig. 14: 90 %-of-baseline recovery distances (EXPERIMENTS.md table)
	// and their ordering: normal WiFi recovers last, higher QAM no later
	// than QAM-16.
	for _, fig := range []struct {
		stage string
		want  map[string]float64
	}{
		{"fig14a", map[string]float64{"Normal": 7, "QAM-16": 4, "QAM-64": 3, "QAM-256": 3}},
		{"fig14b", map[string]float64{"Normal": 6, "QAM-16": 2.5, "QAM-64": 1.5}},
	} {
		for v, want := range fig.want {
			if got := cross(fig.stage, v); math.Abs(got-want) > reproCrossTolM {
				failf("%s %s recovers at %g m, EXPERIMENTS.md %g m ± %g", fig.stage, v, got, want, reproCrossTolM)
			}
		}
		normal := cross(fig.stage, "Normal")
		for _, v := range []string{"QAM-16", "QAM-64", "QAM-256"} {
			if !(cross(fig.stage, v) < normal) {
				failf("%s %s recovers at %g m, not before normal WiFi's %g m", fig.stage, v, cross(fig.stage, v), normal)
			}
		}
		for _, v := range []string{"QAM-64", "QAM-256"} {
			if cross(fig.stage, v) > cross(fig.stage, "QAM-16") {
				failf("%s %s recovers after QAM-16", fig.stage, v)
			}
		}
	}
	// Fig. 14(b) headline: QAM-256 on CH4 sustains the link at 1 m
	// (52 kbit/s) where normal WiFi silences it.
	if got := at("fig14b", "QAM-256", 1, ""); math.Abs(got-52) > 15 {
		failf("fig14b QAM-256 at 1 m: %.1f kbit/s, EXPERIMENTS.md 52 ± 15", got)
	}
	if got := at("fig14b", "Normal", 1, ""); got > 5 {
		failf("fig14b normal WiFi at 1 m: %.1f kbit/s, want < 5", got)
	}

	// Fig. 15: normal WiFi near baseline at d_Z = 1 m and collapsed by
	// 2 m; SledZig variants still at 48-53 kbit/s at 2 m; QAM-256 never
	// below normal.
	if got := at("fig15", "Normal", 1, ""); got < 50 {
		failf("fig15 normal WiFi at 1 m: %.1f kbit/s, want >= 50", got)
	}
	if got := at("fig15", "Normal", 2, ""); got > 10 {
		failf("fig15 normal WiFi at 2 m: %.1f kbit/s, want a collapse below 10", got)
	}
	for _, v := range []string{"QAM-16", "QAM-64", "QAM-256"} {
		if got := at("fig15", v, 2, ""); got < 38 {
			failf("fig15 %s at 2 m: %.1f kbit/s, EXPERIMENTS.md 48-53 (want >= 38)", v, got)
		}
	}
	for _, dz := range []float64{1, 1.2, 1.4, 1.6, 1.8, 2} {
		if q, n := at("fig15", "QAM-256", dz, ""), at("fig15", "Normal", dz, ""); q+5 < n {
			failf("fig15 QAM-256 (%.1f) below normal (%.1f) at %g m", q, n, dz)
		}
	}

	// Fig. 16: means over the runs at each duty ratio against the
	// EXPERIMENTS.md table, and its ordering.
	duty := func(v string, d float64) float64 { return (at("fig16", v, d, "0") + at("fig16", v, d, "1")) / 2 }
	table := map[string][4]float64{
		"Normal":  {43.6, 23.1, 0.4, 0.0},
		"QAM-16":  {46.5, 29.3, 4.9, 0.9},
		"QAM-64":  {60.1, 56.5, 51.4, 48.8},
		"QAM-256": {61.1, 59.2, 55.9, 53.9},
	}
	for v, row := range table {
		for j, d := range []float64{0.2, 0.4, 0.7, 0.9} {
			if got := duty(v, d); math.Abs(got-row[j]) > reproFig16TolKbps {
				failf("fig16 %s at duty %g: %.1f kbit/s, EXPERIMENTS.md %.1f ± %g", v, d, got, row[j], reproFig16TolKbps)
			}
		}
	}
	for _, d := range []float64{0.7, 0.9} {
		for _, v := range []string{"QAM-64", "QAM-256"} {
			if !(duty(v, d) > duty("Normal", d)+20) {
				failf("fig16 %s at duty %g (%.1f) not far above normal (%.1f)", v, d, duty(v, d), duty("Normal", d))
			}
		}
	}
	if !(duty("Normal", 0.2) > duty("Normal", 0.9)+20) {
		failf("fig16 normal WiFi does not decay with duty ratio")
	}

	// Fleet: the stock AP silences every fleet; under SledZig the fleet
	// scales like a CSMA cell and periodic reporting gets through.
	for _, x := range []struct {
		n   float64
		tag string
	}{{1, "saturated"}, {4, "saturated"}, {4, "periodic"}} {
		if got := at("fleet", "Stock", x.n, x.tag); got > 5 {
			failf("fleet stock AP, %g %s nodes: %.1f kbit/s, want < 5", x.n, x.tag, got)
		}
	}
	one, four := at("fleet", "SledZig", 1, "saturated"), at("fleet", "SledZig", 4, "saturated")
	if math.Abs(one-60.5) > 12 {
		failf("fleet SledZig, 1 node: %.1f kbit/s, EXPERIMENTS.md 60.5 ± 12", one)
	}
	if !(four > 1.5*one) {
		failf("fleet SledZig, 4 nodes: %.1f kbit/s, not 1.5x one node's %.1f", four, one)
	}
	offered := 4 * 8 * 100 / reproFleetInterval / 1e3 // 4 nodes, 100-byte frames
	if got := at("fleet", "SledZig", 4, "periodic"); got < 0.8*offered {
		failf("fleet SledZig, 4 periodic nodes: %.1f of %.1f kbit/s offered", got, offered)
	}
	return bad
}

// reproFig16TolKbps bounds a Fig. 16 mean's distance from EXPERIMENTS.md,
// whose means come from ten 10 s runs per box; one pass here has two 1 s
// runs, whose means spread about 20 kbit/s at the high duty ratios.
const reproFig16TolKbps = 20.0
