package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sledzig"
	"sledzig/internal/core"
	"sledzig/internal/wifi"
)

// txConfig is the traffic generator's frame format.
var txConfig = sledzig.Config{Modulation: sledzig.QAM64, CodeRate: sledzig.Rate34, Channel: sledzig.CH2}

const (
	// txPool payloads per run; one in txLargeEvery is a 1500 B frame, the
	// rest are 20-200 B sensor/control frames in evenly filled strata.
	txPool       = 500
	txLargeEvery = 10
	txSmallMin   = 20
	txSmallMax   = 200
	txLarge      = 1500
	// txWindow frames each client keeps outstanding on its Stream.
	txWindow = 2
	// txMaxRate bounds one client's frames per second, for sizing its
	// latency samples.
	txMaxRate = 20000
)

type txInputs struct {
	Payloads [][]byte
	// Bits is each payload's transmit bits from a sequential facade
	// Encoder, packed eight to a byte; NBits is their count.
	Bits  [][]byte
	NBits []int
}

type txWorkload struct {
	seed    int64
	clients int
	in      *txInputs
	eng     *sledzig.Engine
}

func newTx(seed int64) workload {
	return &txWorkload{seed: seed, clients: runtime.GOMAXPROCS(0)}
}

func (w *txWorkload) gen() (any, error) {
	rng := rand.New(rand.NewSource(w.seed))
	enc, err := sledzig.NewEncoder(txConfig)
	if err != nil {
		return nil, err
	}
	in := &txInputs{}
	small := txPool - txPool/txLargeEvery
	for i := 0; i < txPool; i++ {
		size := txLarge
		if i < small {
			stratum := float64(txSmallMax-txSmallMin) / float64(small)
			size = txSmallMin + int(float64(i)*stratum+rng.Float64()*stratum)
		}
		payload := make([]byte, size)
		rng.Read(payload)
		f, err := enc.Encode(payload)
		if err != nil {
			return nil, err
		}
		tb := f.TransmitBits()
		in.Payloads = append(in.Payloads, payload)
		in.Bits = append(in.Bits, packBits(tb))
		in.NBits = append(in.NBits, len(tb))
	}
	// Shuffle so every stretch of the pool carries the same mix.
	perm := rng.Perm(txPool)
	out := &txInputs{Payloads: make([][]byte, txPool), Bits: make([][]byte, txPool), NBits: make([]int, txPool)}
	for to, from := range perm {
		out.Payloads[to], out.Bits[to], out.NBits[to] = in.Payloads[from], in.Bits[from], in.NBits[from]
	}
	return out, nil
}

// packBits packs one-bit-per-byte values eight to a byte, MSB first.
func packBits(b []byte) []byte {
	out := make([]byte, (len(b)+7)/8)
	for i, v := range b {
		out[i/8] |= (v & 1) << (7 - i%8)
	}
	return out
}

// checkBits is the tx correctness check: the frame's transmit bits equal
// the sequential Encoder's for the same payload.
func checkBits(got []byte, want []byte, n int) error {
	if len(got) != n {
		return fmt.Errorf("frame has %d transmit bits, sequential encoder %d", len(got), n)
	}
	for i, v := range got {
		if v != (want[i/8]>>(7-i%8))&1 {
			return fmt.Errorf("transmit bit %d differs from the sequential encoder's", i)
		}
	}
	return nil
}

// setup installs the metrics registry, starts the engine, and pushes the
// whole payload pool through a stream and the renderer once, which fills
// the plan's layout memo for every frame length the loop will see.
func (w *txWorkload) setup(inputs any) error {
	w.in = inputs.(*txInputs)
	sledzig.SetDefaultMetrics(sledzig.NewMetrics())
	eng, err := sledzig.NewEngine(sledzig.EngineConfig{Config: txConfig})
	if err != nil {
		return err
	}
	w.eng = eng
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan []byte)
	out := eng.Stream(ctx, in)
	var buf []complex128
	for i := range w.in.Payloads {
		in <- w.in.Payloads[i]
		r, ok := <-out
		if !ok || r.Err != nil {
			return fmt.Errorf("warm-up frame: %v", r.Err)
		}
		if buf, err = r.Frame.AppendWaveform(buf[:0]); err != nil {
			return fmt.Errorf("warm-up render: %w", err)
		}
		if err := checkBits(r.Frame.TransmitBits(), w.in.Bits[i], w.in.NBits[i]); err != nil {
			return fmt.Errorf("warm-up frame: %w", err)
		}
	}
	close(in)
	for range out {
	}
	return nil
}

func (w *txWorkload) close() {
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
}

// loop is one client: it keeps txWindow payloads outstanding on its own
// Stream, renders each delivered frame into a reused buffer, checks it,
// and only then submits the next payload. Latency runs from submit to
// rendered waveform. With a recorder every other frame is traced: its
// submit-to-delivery and render are spans under a root covering the
// whole latency.
func (w *txWorkload) loop(ctx context.Context, c int, epoch, start, deadline time.Time, out *tally) {
	in := make(chan []byte, txWindow) // holds the whole window: a submit never blocks
	frames := w.eng.Stream(ctx, in)
	// pending maps a stream index to its frame's submit record. Frames can
	// be delivered far out of order: one can stay in the engine while the
	// other window slot cycles through many frames.
	type submit struct {
		at             int64 // ns since epoch
		payload        int
		root, delivers int32
	}
	pending := make(map[int]submit, 2*txWindow)
	var (
		sent, got int
		next      = (c * txPool / w.clients) % txPool
		buf       []complex128
		err       error
	)
	now := func() int64 { return int64(time.Since(epoch)) }
	stop := deadline.Sub(epoch).Nanoseconds()
	begin := start.Sub(epoch).Nanoseconds()
	window := deadline.Sub(start).Seconds()
	recFor := func(index int) *recorder {
		if index%2 == 1 {
			return out.rec
		}
		return nil
	}
	send := func() {
		rec, req := recFor(sent), int64(c)<<40|int64(sent)
		s := submit{at: now(), payload: next}
		s.root = rec.add("tx.frame", req, -1, s.at)
		s.delivers = rec.add("engine.deliver", req, s.root, s.at)
		pending[sent] = s
		in <- w.in.Payloads[next]
		sent++
		next = (next + 1) % txPool
	}
	for sent < txWindow {
		send()
	}
	for r := range frames {
		tDeliv := now()
		sub := pending[r.Index]
		delete(pending, r.Index)
		rec, req := recFor(r.Index), int64(c)<<40|int64(r.Index)
		rec.endAt(sub.delivers, tDeliv)
		got++
		tDone, air := tDeliv, 0.0
		if r.Err == nil {
			h := rec.add("wifi.tx", req, sub.root, tDeliv)
			buf, err = r.Frame.AppendWaveform(buf[:0])
			tDone = now()
			rec.endAt(h, tDone)
			if err == nil {
				i := sub.payload
				err = checkBits(r.Frame.TransmitBits(), w.in.Bits[i], w.in.NBits[i])
			}
			if err != nil {
				out.problem("tx: " + err.Error())
			}
			air = r.Frame.AirtimeSeconds()
			if rec != nil {
				out.symbols += int64(r.Frame.NumSymbols())
			}
		}
		rec.endAt(sub.root, tDone)
		out.add(rec != nil, float64(tDone-begin)/1e9, float64(tDone-sub.at)/1e9, window, air, r.Err == nil)
		switch {
		case now() < stop:
			send()
		case got == sent:
			close(in)
		}
	}
}

func (w *txWorkload) phase(seconds float64, traced bool, epoch time.Time) *closedLoop {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return runClients(w.clients, seconds, txMaxRate, traced, epoch, func(c int, start, deadline time.Time, t *tally) {
		w.loop(ctx, c, epoch, start, deadline, t)
	})
}

// encodePass times core.Encoder.EncodeTo over every pool payload on one
// goroutine: the engine's service time without its queue.
func (w *txWorkload) encodePass(rec *recorder) error {
	cfg := txConfig.WithDefaults()
	plan, err := core.CachedPlan(cfg.Convention, wifi.Mode{Modulation: cfg.Modulation, CodeRate: cfg.CodeRate}, cfg.Channel)
	if err != nil {
		return err
	}
	enc := core.Encoder{Plan: plan, Seed: cfg.ScramblerSeed}
	var res core.EncodeResult
	for i, p := range w.in.Payloads {
		h := rec.begin("core.encode", int64(1)<<50|int64(i), -1)
		err := enc.EncodeTo(p, &res)
		rec.end(h)
		if err != nil {
			return err
		}
	}
	return nil
}

// measure runs the closed loop. A traced run first runs an untraced
// phase, which gives the facade's allocations and GC share, then a phase
// tracing every other frame, followed by a core.Encoder.EncodeTo pass.
func (w *txWorkload) measure(seconds float64, traced bool, rep *report) error {
	epoch := time.Now()
	if !traced {
		p := w.phase(seconds, false, epoch)
		p.report(rep)
		blockMetrics(rep, p)
		return nil
	}
	u := w.phase(seconds*untracedShare, false, epoch)
	t := w.phase(seconds*(1-untracedShare), true, epoch)
	u.report(rep)
	t.report(rep)
	encRec := newRecorder(epoch)
	if err := w.encodePass(encRec); err != nil {
		return fmt.Errorf("core encode pass: %w", err)
	}
	spans, stats := aggregate(append(t.recorders(), encRec))
	rep.spans = spans
	n := float64(t.traced())
	deliver, service := get(stats, "engine.deliver"), get(stats, "core.encode")
	wtx := get(stats, "wifi.tx")
	serviceUs := service.total / float64(service.count) * 1e6
	health := w.eng.HealthReport()
	shed := health.Shed
	rep.set("engine.deliver_us_p50", percentile(deliver.durs, 50)*1e6)
	rep.set("engine.deliver_us_p99", percentile(deliver.durs, 99)*1e6)
	rep.set("core.encode.us_per_frame", serviceUs)
	rep.set("engine.wait_us_per_frame", deliver.total/float64(deliver.count)*1e6-serviceUs)
	rep.set("engine.shed", float64(shed.QueueWait+shed.Inflight+shed.AbandonedWorkers+shed.CircuitOpen+shed.Draining))
	rep.set("engine.failed", float64(u.failed+t.failed+int64(health.Abandoned)))
	rep.set("wifi.tx.us_per_frame", wtx.total/n*1e6)
	rep.set("wifi.tx.us_per_symbol", wtx.total/float64(t.symbols)*1e6)
	rep.set("facade.encode.allocs_per_frame", u.delta.mallocs/float64(u.ok+u.failed))
	rep.set("facade.encode.bytes_per_frame", u.delta.bytes/float64(u.ok+u.failed))
	rep.set("tx.unattributed_us_per_frame", t.meanLat(false)*1e6-(deliver.total+wtx.total)/n*1e6)
	rep.set("tx.symbols", float64(t.symbols))
	rep.set("go.gc_cpu_frac", u.delta.gcFrac)
	rep.set("trace_overhead_frac", t.meanLat(true)/t.meanLat(false)-1)
	rep.set("failed_frac", frac(rep.failed, rep.attempted))
	return nil
}
