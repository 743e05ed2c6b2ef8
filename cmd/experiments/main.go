// Command experiments regenerates every table and figure of the SledZig
// paper's evaluation section and prints each next to the values the paper
// reports. Run with -quick for a fast pass (shorter simulations).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"sledzig"
	"sledzig/internal/baseline"
	"sledzig/internal/core"
	"sledzig/internal/exp"
	"sledzig/internal/ht40"
	"sledzig/internal/obs"
	"sledzig/internal/wifi"
)

// manifest is the machine-readable record of one experiments run, written
// next to the text output so benchmark trajectories can be reproduced:
// the exact configuration, toolchain, wall time and the final metrics
// snapshot of the whole pipeline.
type manifest struct {
	Command   string            `json:"command"`
	Config    map[string]string `json:"config"`
	Seed      int64             `json:"seed"`
	GoVersion string            `json:"go_version"`
	GOOS      string            `json:"goos"`
	GOARCH    string            `json:"goarch"`
	StartTime time.Time         `json:"start_time"`
	WallSecs  float64           `json:"wall_seconds"`
	Failed    []string          `json:"failed,omitempty"`
	Metrics   obs.Snapshot      `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	quick := flag.Bool("quick", false, "shorter simulations (less stable statistics)")
	seed := flag.Int64("seed", 1, "random seed for all experiments")
	only := flag.String("only", "", "run a single experiment (theory, table2, table34, minsnr, fig5b, fig11..fig17, baselines, codecs, fleet, ht40, ccamode, percurve, phylevel, engine)")
	codecName := flag.String("codec", "", "restrict the codecs experiment to one backend (sledzig, ook-ctc, ofdmfi)")
	codecManifest := flag.String("codec-manifest", "", "write the codecs experiment's comparison rows as JSON to this file")
	manifestPath := flag.String("manifest", "", "write a JSON run manifest (config, seed, go version, wall time, metrics snapshot) to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while the experiments run")
	traceJSONL := flag.String("trace-jsonl", "", "enable per-frame tracing and stream retained frame traces here as JSON lines")
	traceSample := flag.Int("trace-sample", 256, "with tracing on, head-sample every Nth frame (failed frames are always retained)")
	workers := flag.Int("workers", 0, "goroutines for parallel sweeps and the engine experiment (0 = all cores)")
	flag.Parse()

	if *workers > 0 {
		// The sweep helpers size their fan-out from GOMAXPROCS, so one
		// knob caps every parallel stage of the run.
		runtime.GOMAXPROCS(*workers)
	}

	metrics := sledzig.NewMetrics()
	sledzig.SetDefaultMetrics(metrics)
	var traceOut *os.File
	var traceExp *sledzig.TraceJSONL
	if *traceJSONL != "" {
		f, err := os.Create(*traceJSONL)
		if err != nil {
			log.Fatal(err)
		}
		traceOut = f
		traceExp = sledzig.NewTraceJSONL(f)
		tracer := sledzig.NewTracer(sledzig.TraceConfig{SampleEvery: *traceSample})
		tracer.AddExporter(traceExp)
		sledzig.SetDefaultTracer(tracer)
	}
	if *metricsAddr != "" {
		bound, err := metrics.Serve(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (expvar /debug/vars, pprof /debug/pprof/)\n", bound)
	}
	start := time.Now()
	var failed []string

	conv := wifi.ConventionPaper
	opts := exp.ThroughputOptions{Convention: conv, Seed: *seed, Duration: 10}
	runs := 10
	if *quick {
		opts.Duration = 4
		runs = 4
	}

	run := func(name string, fn func() error) {
		if *only != "" && *only != name {
			return
		}
		fmt.Printf("==================== %s ====================\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			failed = append(failed, name)
			return
		}
		fmt.Println()
	}

	run("theory", func() error {
		fmt.Println("Section III-B — theoretical per-subcarrier power reduction P_avg/P_low")
		for _, r := range exp.TheoreticalReductions() {
			fmt.Printf("  %-8v computed %5.1f dB   paper %5.1f dB\n", r.Modulation, r.ComputedDB, r.PaperDB)
		}
		return nil
	})

	run("table2", func() error {
		got, want, err := exp.TableII(conv)
		if err != nil {
			return err
		}
		fmt.Println("Table II — significant-bit positions, 1st OFDM symbol, QAM-16 r=1/2, CH2")
		fmt.Printf("  computed: %v\n  paper:    %v\n", got, want)
		match := len(got) == len(want)
		for i := range want {
			if match && got[i] != want[i] {
				match = false
			}
		}
		fmt.Printf("  exact match: %v\n", match)
		return nil
	})

	run("table34", func() error {
		s, err := exp.FormatOverheadTable(conv)
		if err != nil {
			return err
		}
		fmt.Print(s)
		return nil
	})

	run("minsnr", func() error {
		frames := 20
		if *quick {
			frames = 8
		}
		rows, err := exp.MinSNRSweep(conv, *seed, frames)
		if err != nil {
			return err
		}
		fmt.Println("Table IV (min SNR column) — required SNR for PER <= 0.1, full waveform chain, AWGN")
		for _, r := range rows {
			fmt.Printf("  %-18v paper %4.0f dB   hard-decision %4.0f dB   soft-decision %4.0f dB\n",
				r.Mode, r.PaperDB, r.MeasuredDB, r.SoftDB)
		}
		fmt.Println("  (hard decisions cost ~2 dB; the soft chain should sit on the paper's figures)")
		return nil
	})

	run("fig5b", func() error {
		spec, err := exp.Fig5b(conv, wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, core.CH2, *seed)
		if err != nil {
			return err
		}
		fmt.Print(spec)
		fmt.Printf("in-channel band-power drop: %.1f dB\n", spec.BandDropDB())
		return nil
	})

	run("fig11", func() error {
		fig, err := exp.Fig11(conv, *seed)
		if err != nil {
			return err
		}
		fmt.Print(fig)
		fmt.Println("paper: 7 data subcarriers suffice for CH1-CH3 (1-2 dB below 6, flat to 8); 5 for CH4")
		return nil
	})

	run("fig12", func() error {
		fig, err := exp.Fig12(conv, *seed)
		if err != nil {
			return err
		}
		fmt.Print(fig)
		fmt.Println("paper: CH1-CH3 -60 -> -64/-66/-68 dBm; CH4 -64 -> -70/-75/-78 dBm")
		return nil
	})

	run("fig13", func() error {
		fig := exp.Fig13()
		fmt.Print(fig)
		fmt.Println("paper: -75 dBm at 0.5 m / gain 31; submerged in the -91 dBm floor at 1 m below gain ~15")
		return nil
	})

	run("fig14", func() error {
		for _, ch := range []core.ZigBeeChannel{core.CH3, core.CH4} {
			fig, err := exp.Fig14(ch, opts)
			if err != nil {
				return err
			}
			fmt.Print(fig)
			baseline := 63.0
			for _, s := range fig.Series {
				fmt.Printf("  %-8s reaches %.0f%% of baseline at d_WZ = %.1f m\n",
					s.Name, 90.0, s.CrossoverX(0.9*baseline))
			}
		}
		fmt.Println("paper (a): normal 8.5 m; QAM-16 5 m; QAM-64 4.5 m; QAM-256 3.5 m")
		fmt.Println("paper (b): QAM-256 succeeds even at 1 m")
		return nil
	})

	run("fig15", func() error {
		fig, err := exp.Fig15(opts)
		if err != nil {
			return err
		}
		fmt.Print(fig)
		fmt.Println("paper: throughput collapses near d_Z = 1.6 m; SledZig helps little there (WiFi preamble)")
		return nil
	})

	run("fig16", func() error {
		pts, err := exp.Fig16(opts, runs)
		if err != nil {
			return err
		}
		cur := ""
		for _, p := range pts {
			if p.Variant != cur {
				cur = p.Variant
				fmt.Printf("%s:\n", cur)
			}
			fmt.Printf("  duty %.0f%%: min %5.1f  q1 %5.1f  med %5.1f  q3 %5.1f  max %5.1f  mean %5.1f kbit/s\n",
				p.DutyRatio*100, p.Stats.Min, p.Stats.Q1, p.Stats.Median, p.Stats.Q3, p.Stats.Max, p.Stats.Mean)
		}
		fmt.Println("paper: normal ~23 kbit/s at 20% then ~0; QAM-16 good to 20%, QAM-64 to 40%, QAM-256 to 70% (34.5 kbit/s mean)")
		return nil
	})

	run("fig17", func() error {
		fig := exp.Fig17()
		fmt.Print(fig)
		fmt.Println("paper: ZigBee ~30 dB below WiFi at the WiFi receiver; at the noise floor beyond ~1 m")
		return nil
	})

	run("baselines", func() error {
		fmt.Println("Mechanism comparison (paper sections III-B / VI): SledZig vs EmBee-style nulling vs gain reduction")
		fmt.Printf("  %-22s%12s%14s%16s%12s\n", "setting", "drop (dB)", "WiFi cost", "mechanism", "standard?")
		for _, tc := range []struct {
			mode wifi.Mode
			ch   core.ZigBeeChannel
		}{
			{wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}, core.CH2},
			{wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}, core.CH4},
		} {
			cmp, err := baseline.Compare(conv, tc.mode, tc.ch, baseline.RandomPayload(*seed, 400))
			if err != nil {
				return err
			}
			name := fmt.Sprintf("%v %v", tc.mode, tc.ch)
			fmt.Printf("  %-22s%12.1f%13.1f%%%16s%12v\n", name, cmp.SledZigDropDB,
				100*cmp.SledZigThroughputLoss, "SledZig", true)
			fmt.Printf("  %-22s%12.1f%13.1f%%%16s%12v\n", name, cmp.NullDropDB,
				100*cmp.NullCapacityLoss, "null (EmBee)", false)
			fmt.Printf("  %-22s%12.1f%13s%16s%12v\n", name, cmp.GainDropDB,
				fmt.Sprintf("1/%.1f range", cmp.GainRangeShrink), "gain cut", true)
		}
		return nil
	})

	run("codecs", func() error {
		frames := 20
		if *quick {
			frames = 6
		}
		rows, err := exp.CompareCodecs(exp.CodecCompareOptions{
			Convention: conv,
			Seed:       *seed,
			Frames:     frames,
			Only:       *codecName,
		})
		if err != nil {
			return err
		}
		fmt.Println("Codec comparison (paper section VI) — registry backends under one contract")
		fmt.Println("QAM-16 r=1/2, CH2, 100 B payloads, 15 dB AWGN")
		fmt.Print(exp.FormatCodecTable(rows))
		fmt.Println("  (SledZig: whole-frame drop at a few % WiFi cost; ook-ctc protects only its")
		fmt.Println("  low symbols; ofdmfi drops further but carries no WiFi data at all)")
		if *codecManifest != "" {
			f, err := os.Create(*codecManifest)
			if err != nil {
				return err
			}
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rows); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "codec manifest written to %s\n", *codecManifest)
		}
		return nil
	})

	run("fleet", func() error {
		pts, err := exp.FleetSweep(opts)
		if err != nil {
			return err
		}
		fmt.Println("Extension — acknowledged fleet throughput under a saturated AP at 3 m (QAM-256, CH3)")
		fmt.Printf("  %-8s%16s%16s%12s%12s\n", "nodes", "stock (kbit/s)", "SledZig (kbit/s)", "collisions", "retries")
		byNodes := map[int][2]float64{}
		coll := map[int][2]int{}
		retr := map[int][2]int{}
		for _, p := range pts {
			idx := 0
			if p.SledZig {
				idx = 1
			}
			v := byNodes[p.Nodes]
			v[idx] = p.Throughput
			byNodes[p.Nodes] = v
			c := coll[p.Nodes]
			c[idx] = p.Collisions
			coll[p.Nodes] = c
			r := retr[p.Nodes]
			r[idx] = p.Retries
			retr[p.Nodes] = r
		}
		for _, n := range []int{1, 2, 4, 8} {
			fmt.Printf("  %-8d%16.1f%16.1f%12d%12d\n", n, byNodes[n][0], byNodes[n][1], coll[n][1], retr[n][1])
		}
		return nil
	})

	run("ht40", func() error {
		fmt.Println("Extension (paper footnote 1) — SledZig on a 40 MHz channel")
		fmt.Printf("  %-18s%12s%14s%14s\n", "mode", "channel", "extra/symbol", "loss")
		for _, tc := range []struct {
			mode wifi.Mode
			ch   ht40.Channel
		}{
			{wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, ht40.Channel(2)},
			{wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}, ht40.Channel(2)},
			{wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}, ht40.Channel(5)},
		} {
			plan, err := ht40.NewPlan(conv, tc.mode, tc.ch)
			if err != nil {
				return err
			}
			fmt.Printf("  %-18v%12v%14d%13.2f%%\n", tc.mode, tc.ch,
				plan.ExtraBitsPerSymbol(), 100*plan.ThroughputLossFraction())
		}
		fmt.Println("  (108 data subcarriers halve the relative overhead of protecting one 2 MHz channel)")
		return nil
	})

	run("ccamode", func() error {
		rows, err := exp.RunCCAModeAblation(opts)
		if err != nil {
			return err
		}
		fmt.Println("Modeling ablation — does the TelosB CCA react to WiFi energy? (CH3, d_Z = 1 m, saturated WiFi)")
		fmt.Printf("  %-10s%10s%18s%20s\n", "variant", "d_WZ (m)", "energy-CCA", "carrier-only CCA")
		for _, r := range rows {
			fmt.Printf("  %-10s%10.1f%15.1f kb%17.1f kb\n", r.Variant, r.DWZ, r.EnergyKbps, r.CarrierKbps)
		}
		fmt.Println("  (Fig. 14 uses energy-CCA per the paper's carrier-sense narrative; Fig. 16's")
		fmt.Println("  concurrent transmissions at 1 m require carrier-only — see EXPERIMENTS.md)")
		return nil
	})

	run("percurve", func() error {
		frames := 25
		if *quick {
			frames = 10
		}
		fig, err := exp.PERCurve(conv, wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate34}, *seed, frames)
		if err != nil {
			return err
		}
		fmt.Print(fig)
		fmt.Printf("soft-decision gain at PER 0.5: %.1f dB\n", exp.SoftGainDB(fig))
		return nil
	})

	run("phylevel", func() error {
		trials := 12
		if *quick {
			trials = 6
		}
		res, err := exp.RunPhyLevel(exp.PhyLevelConfig{Convention: conv, Seed: *seed, Trials: trials})
		if err != nil {
			return err
		}
		fmt.Print(exp.FormatPhyLevel(res))
		fmt.Println("(real WiFi + ZigBee waveforms mixed at sample level; unsynchronized correlation receiver)")
		return nil
	})

	run("engine", func() error {
		n := 256
		if *quick {
			n = 64
		}
		cfg := sledzig.Config{Modulation: sledzig.QAM64, CodeRate: sledzig.Rate34, Channel: sledzig.CH2}
		payloads := make([][]byte, n)
		for i := range payloads {
			p := make([]byte, 400)
			for j := range p {
				p[j] = byte(int(*seed) + i + j)
			}
			payloads[i] = p
		}

		enc, err := sledzig.NewEncoder(cfg)
		if err != nil {
			return err
		}
		seqStart := time.Now()
		for _, p := range payloads {
			if _, err := enc.Encode(p); err != nil {
				return err
			}
		}
		seqSecs := time.Since(seqStart).Seconds()

		eng, err := sledzig.NewEngine(sledzig.EngineConfig{Config: cfg, Workers: *workers})
		if err != nil {
			return err
		}
		defer eng.Close()
		batchStart := time.Now()
		if _, err := eng.EncodeBatch(context.Background(), payloads); err != nil {
			return err
		}
		batchSecs := time.Since(batchStart).Seconds()

		fmt.Printf("Engine throughput — %d frames of 400 B, QAM-64 r=3/4, CH2\n", n)
		fmt.Printf("  sequential Encode:       %8.1f frames/s\n", float64(n)/seqSecs)
		fmt.Printf("  EncodeBatch (%2d workers): %8.1f frames/s  (%.2fx)\n",
			eng.Workers(), float64(n)/batchSecs, seqSecs/batchSecs)

		// Decode half: render the waveforms once, then decode them
		// sequentially and through the pool.
		frames, err := eng.EncodeBatch(context.Background(), payloads)
		if err != nil {
			return err
		}
		waveforms := make([][]complex128, n)
		for i, f := range frames {
			if waveforms[i], err = f.Waveform(); err != nil {
				return err
			}
		}
		dec, err := sledzig.NewDecoder(cfg)
		if err != nil {
			return err
		}
		decSeqStart := time.Now()
		for _, w := range waveforms {
			if _, err := dec.Decode(w); err != nil {
				return err
			}
		}
		decSeqSecs := time.Since(decSeqStart).Seconds()
		decBatchStart := time.Now()
		if _, err := eng.DecodeBatch(context.Background(), waveforms); err != nil {
			return err
		}
		decBatchSecs := time.Since(decBatchStart).Seconds()
		fmt.Printf("  sequential Decode:       %8.1f frames/s\n", float64(n)/decSeqSecs)
		fmt.Printf("  DecodeBatch (%2d workers): %8.1f frames/s  (%.2fx)\n",
			eng.Workers(), float64(n)/decBatchSecs, decSeqSecs/decBatchSecs)
		return nil
	})

	if *manifestPath != "" {
		if err := writeManifest(*manifestPath, metrics, start, *seed, failed); err != nil {
			fmt.Fprintf(os.Stderr, "manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "manifest written to %s\n", *manifestPath)
	}
	if traceOut != nil {
		err := traceExp.Flush()
		if cerr := traceOut.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "frame traces written to %s\n", *traceJSONL)
	}
	if len(failed) > 0 {
		os.Exit(1)
	}
}

// writeManifest records the run: every flag value (defaults included),
// the toolchain, wall time, which experiments failed, and the final
// metrics snapshot.
func writeManifest(path string, metrics *sledzig.Metrics, start time.Time, seed int64, failed []string) error {
	cfg := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) { cfg[f.Name] = f.Value.String() })
	m := manifest{
		Command:   "experiments",
		Config:    cfg,
		Seed:      seed,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		StartTime: start.UTC(),
		WallSecs:  time.Since(start).Seconds(),
		Failed:    failed,
		Metrics:   metrics.Snapshot(),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
