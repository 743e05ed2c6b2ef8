// Package engine runs the coexistence codecs across a shared pool of
// workers: batch and streaming front-ends over the shared plan cache,
// with bounded queues for backpressure and full pipeline instrumentation.
// It exists so callers that process many frames (sweeps, simulators,
// traffic generators) saturate every core without re-deriving plans or
// re-implementing fan-out. Each worker owns one encoder and one receiver
// (or one registry codec instance) whose scratch buffers are recycled
// frame to frame.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sledzig/internal/codec"
	"sledzig/internal/core"
	"sledzig/internal/obs"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

// ErrClosed is returned by batch and stream submissions after Close.
var ErrClosed = errors.New("engine closed")

// ErrFramePanic marks a frame whose encode or decode panicked inside a
// worker. The panic is converted into this per-frame error — the worker,
// its pool, and every sibling frame in the batch keep running.
var ErrFramePanic = errors.New("engine: frame worker panicked")

// ErrFrameTimeout marks a frame that exceeded Config.FrameTimeout. The
// worker abandons the stuck computation (it finishes in the background on
// private state) and continues with fresh encoder/decoder state.
var ErrFrameTimeout = errors.New("engine: frame deadline exceeded")

// Config selects the frame parameters (one engine encodes one
// plan — convention, mode, channel, seed) and the pool geometry.
type Config struct {
	Convention wifi.Convention
	Mode       wifi.Mode
	Channel    core.ZigBeeChannel
	// Seed is the scrambler seed (0 selects wifi.DefaultScramblerSeed).
	Seed uint8

	// Workers is the number of encoder goroutines; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Queue bounds the job queue and each Stream's output channel;
	// <= 0 selects 2*Workers. A full queue blocks submitters — that is
	// the backpressure contract.
	Queue int

	// FrameTimeout bounds each frame's encode or decode wall time; a frame
	// past the deadline fails with ErrFrameTimeout while its batch
	// siblings proceed. Zero disables the deadline (and its small
	// per-frame goroutine cost).
	FrameTimeout time.Duration

	// MaxQueueWait bounds how long a submission may wait for queue
	// capacity before being shed with a typed *Overload (ErrOverloaded).
	// Zero keeps the original blocking-backpressure contract: wait until
	// a worker frees capacity, the caller's context dies, or the engine
	// quits at the end of a Drain.
	MaxQueueWait time.Duration
	// MaxInflight caps admitted-but-unfinished frames across the queue
	// and the workers; beyond it submissions shed with ErrOverloaded.
	// <= 0 disables the cap.
	MaxInflight int
	// MaxAbandoned caps concurrently timeout-abandoned frame goroutines;
	// at the cap new frames shed with ErrOverloaded rather than risk
	// spawning another. 0 selects 16*Workers; negative disables the cap.
	MaxAbandoned int
	// Breaker configures the engine's circuit breaker; the zero value
	// disables it (see BreakerConfig).
	Breaker BreakerConfig
	// Resilient enables the receivers' graceful-degradation ladder
	// (preamble resync after a failed decode at sample 0).
	Resilient bool
	// WideIQ selects the complex128 reference receive pipeline; the zero
	// value decodes on the narrow complex64 path.
	WideIQ bool

	// Codec selects a registry backend ("ook-ctc", "ofdmfi", ...). Empty
	// or "sledzig" runs the specialized zero-allocation SledZig path;
	// any other name routes every frame through codec.New instances, one
	// per worker.
	Codec string
}

const codecSledZig = "sledzig"

// generic reports whether the engine routes through the codec registry
// instead of the specialized SledZig path.
func (c Config) generic() bool {
	return c.Codec != "" && c.Codec != codecSledZig
}

// codecParams maps the engine config onto codec-layer parameters.
func (c Config) codecParams() codec.Params {
	return codec.Params{
		Convention: c.Convention,
		Mode:       c.Mode,
		Channel:    c.Channel,
		Seed:       c.Seed,
		Resilient:  c.Resilient,
		WideIQ:     c.WideIQ,
	}
}

// withDefaults resolves the pool geometry.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 2 * c.Workers
	}
	return c
}

// job is one unit of work in flight — an encode (payload set, deliver set)
// or a decode (waveform set, deliverDec set). The deliver callback is
// called exactly once with the outcome, then done (when set) is released.
type job struct {
	payload  []byte
	waveform []complex128
	idx      int
	// ctx is the submitting call's context; a worker dequeuing a job whose
	// context already expired fails it immediately without touching the
	// PHY — cancellation drains a full queue at channel speed.
	ctx context.Context

	deliver    func(idx int, res *Product, err error)
	deliverDec func(idx int, res *DecodeResult, err error)
	done       *sync.WaitGroup

	// probe marks a frame admitted as a half-open circuit-breaker trial;
	// its outcome (or shed) must hand the probe slot back.
	probe bool

	// enq is the submission time the frame-latency histograms measure from.
	enq time.Time
	// tr is the frame's trace (nil when tracing is off): started at
	// submission, marked Enqueued/Dequeued around the queue hop, threaded
	// into the PHY pipelines for stage spans, and finished with the outcome.
	tr *trace.Frame
}

// direction is everything that differs between encode and decode frames.
// Admission, the queue, the worker loop, delivery and drain are one
// implementation, generic over the input and result types.
type direction[In, R any] struct {
	k     int    // index into the per-direction metrics and worker stages
	input string // what one input is called in batch errors
	// start opens a frame's root trace (nil when tracing is off).
	start func() *trace.Frame
	// bind stores the input and the typed outcome callback on a job.
	bind func(j *job, in In, deliver func(int, R, error))
	run  func(w workerState, j *job) (R, error)
	// size is the byte count a successful frame adds to its stage.
	size func(j *job, res R) int
}

var encoding = &direction[[]byte, *Product]{
	k: 0, input: "payload",
	start: func() *trace.Frame { return trace.Start("encode") },
	bind:  func(j *job, p []byte, deliver func(int, *Product, error)) { j.payload, j.deliver = p, deliver },
	run:   encodeFrame,
	size:  func(j *job, _ *Product) int { return len(j.payload) },
}

var decoding = &direction[[]complex128, *DecodeResult]{
	k: 1, input: "waveform",
	start: func() *trace.Frame { return trace.Start("decode") },
	bind: func(j *job, w []complex128, deliver func(int, *DecodeResult, error)) {
		j.waveform, j.deliverDec = w, deliver
	},
	run:  decodeFrame,
	size: func(_ *job, res *DecodeResult) int { return len(res.Payload) },
}

// dispatch serves j in its direction; a nil w sheds it.
func (e *Engine) dispatch(w *workerState, j *job) {
	if j.deliverDec != nil {
		serve(e, w, j, decoding, j.deliverDec)
	} else {
		serve(e, w, j, encoding, j.deliver)
	}
}

// quitBit is set in Engine.inflight once the engine quits, so one atomic
// step both stops admission and fixes which frames were pending at quit.
const quitBit = int64(1) << 62

// Engine is a fixed pool of encoder workers sharing one cached plan.
// All methods are safe for concurrent use.
type Engine struct {
	cfg  Config
	plan *core.Plan
	// id is the engine's slot in the live-engine health registry.
	id uint64

	// now is the engine's clock seam: batch latency metrics, breaker
	// cooldowns, and health recency all read time through it so tests
	// (and deterministic replay harnesses) can inject a fake clock. New
	// wires it to time.Now.
	now func() time.Time

	// breaker is nil unless Config.Breaker enables it.
	breaker *breaker

	// state is the admission gate (accepting/draining/closed); inflight
	// counts admitted-but-unfinished frames (each submission reserves
	// before enqueueing, each outcome — delivered, shed, or skipped —
	// releases), plus quitBit once the engine quits; abandoned counts live
	// timeout-abandoned frame goroutines; lastShedNS stamps the most
	// recent shed decision for health recency.
	state      atomic.Int32
	inflight   atomic.Int64
	abandoned  atomic.Int64
	lastShedNS atomic.Int64
	sheds      shedTally

	// drained closes (via drainOnce) when admission has stopped and the
	// inflight count reaches zero. quit closes once, when Drain's deadline
	// expires or its flush completes: workers exit, queued jobs shed, and
	// every blocking send gives up. pendingAtQuit is the inflight count at
	// that instant (written before quit closes). drainFlushed/drainShedN
	// account the drain's per-frame disposition.
	drained       chan struct{}
	drainOnce     sync.Once
	quit          chan struct{}
	pendingAtQuit int64
	drainFlushed  atomic.Uint64
	drainShedN    atomic.Uint64

	jobs chan *job
	wg   sync.WaitGroup
}

// New builds the engine: resolves the plan through the process-wide plan
// cache (so engines and plain Encoders with the same parameters share
// constraint state) and starts the workers. With a generic Config.Codec
// the plan is skipped and the backend is constructed once up front to
// surface configuration errors here rather than per frame.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	var plan *core.Plan
	if cfg.generic() {
		if _, err := codec.New(cfg.Codec, cfg.codecParams()); err != nil {
			return nil, err
		}
	} else {
		var err error
		plan, err = core.CachedPlan(cfg.Convention, cfg.Mode, cfg.Channel)
		if err != nil {
			return nil, err
		}
	}
	e := &Engine{
		cfg:     cfg,
		plan:    plan,
		now:     time.Now,
		breaker: newBreaker(cfg.Breaker),
		drained: make(chan struct{}),
		quit:    make(chan struct{}),
		jobs:    make(chan *job, cfg.Queue),
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker(i)
	}
	registerEngine(e)
	return e, nil
}

// Workers returns the resolved worker count.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Plan exposes the engine's shared, read-only plan (nil when a generic
// codec backend is selected — those own their pinning state).
func (e *Engine) Plan() *core.Plan { return e.plan }

// workerState is one worker's mutable PHY state. It is rebuilt whenever a
// frame is abandoned to a deadline: the timed-out goroutine still owns the
// old encoder/decoder buffers (or codec instance), so the worker must
// never touch them again.
type workerState struct {
	e      *Engine
	i      int
	stages [2]*obs.Stage // per direction, indexed by direction.k
	enc    *core.Encoder
	dec    *decoderState
	cdc    codec.Codec // non-nil iff cfg.generic()
}

func (w *workerState) reset() {
	if w.e.cfg.generic() {
		// New validated this construction; a failure here means the
		// registry changed underneath a running engine — fail loudly.
		cdc, err := codec.New(w.e.cfg.Codec, w.e.cfg.codecParams())
		if err != nil {
			panic(fmt.Sprintf("engine: codec %q vanished mid-run: %v", w.e.cfg.Codec, err))
		}
		w.cdc = cdc
		return
	}
	w.enc = &core.Encoder{Plan: w.e.plan, Seed: w.e.cfg.Seed}
	w.dec = w.e.newDecoderState()
}

// setTrace threads a frame trace into a codec instance when it supports
// tracing; only the computation that owns cdc may call it.
func setTrace(cdc codec.Codec, tr *trace.Frame) {
	if t, ok := cdc.(codec.Traceable); ok {
		t.SetTrace(tr)
	}
}

// testFrameHook, when non-nil, runs inside the guarded section before each
// frame — the seam the robustness tests use to inject panics and stalls.
var testFrameHook func(j *job)

// FrameHookInfo describes the frame about to run when a process-wide
// frame hook (SetFrameHook) is installed.
type FrameHookInfo struct {
	// Codec is the engine's backend name ("sledzig", "ofdmfi", ...).
	Codec string
	// Decode is true for decode frames, false for encode.
	Decode bool
	// Index is the frame's slot in its batch.
	Index int
}

// frameHook is the process-wide fault-injection hook; atomic so harnesses
// can install and remove it while engines run.
var frameHook atomic.Pointer[func(FrameHookInfo)]

// SetFrameHook installs (nil removes) a process-wide hook that runs inside
// every frame's containment boundary, before the PHY work. It exists for
// fault-injection harnesses (cmd/chaos -overload) that need to drive panic
// and stall storms through the same recovery, timeout, breaker, and
// admission machinery real failures exercise. Not a production seam.
func SetFrameHook(h func(FrameHookInfo)) {
	if h == nil {
		frameHook.Store(nil)
		return
	}
	frameHook.Store(&h)
}

// strike runs the frame hooks for one frame; called inside the guarded
// section so an injected panic or stall is contained like a real one.
func (e *Engine) strike(j *job) {
	if h := testFrameHook; h != nil {
		h(j)
	}
	if hp := frameHook.Load(); hp != nil {
		(*hp)(FrameHookInfo{Codec: e.codecName(), Decode: j.deliverDec != nil, Index: j.idx})
	}
}

// runProtected executes fn, converting a panic into a typed per-frame
// error carrying the stack. This is the boundary that keeps one hostile
// frame from taking down the worker pool.
func runProtected[R any](fn func() (R, error)) (res R, err error) {
	defer func() {
		if r := recover(); r != nil {
			metrics().panics.Inc()
			err = fmt.Errorf("%w: %v\n%s", ErrFramePanic, r, debug.Stack())
		}
	}()
	return fn()
}

// runFrame runs one frame's PHY work — the fault hooks, then d.run — under
// panic recovery and, when configured, the per-frame deadline. The work
// runs on a copy of w's state: on deadline or context expiry it is
// abandoned to finish on its own with that copy, reset gives w fresh
// state, and a typed error is returned promptly. Abandoned goroutines are
// counted in the abandoned_workers gauge and capped by
// Config.MaxAbandoned: at the cap a new frame sheds with ErrOverloaded
// instead of risking yet another background goroutine.
func runFrame[In, R any](w *workerState, j *job, d *direction[In, R]) (R, error) {
	st := *w
	fn := func() (R, error) {
		st.e.strike(j)
		return d.run(st, j)
	}
	var none R
	e := w.e
	timeout := e.cfg.FrameTimeout
	if timeout <= 0 {
		return runProtected(fn)
	}
	if limit := e.abandonedCap(); limit > 0 && int(e.abandoned.Load()) >= limit {
		e.noteShed(&e.sheds.abandoned, metrics().shedAbandoned)
		return none, e.overload(OverloadAbandoned, 0)
	}
	// fate arbitrates the race between the frame finishing and the worker
	// abandoning it: whichever side loses its CAS settles the abandoned
	// tally, and a frame that finishes at the buzzer still wins — the
	// worker takes its real result instead of reporting a timeout.
	var fate atomic.Int32
	type result struct {
		res R
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := runProtected(fn)
		if !fate.CompareAndSwap(frameRunning, frameFinished) {
			// The worker abandoned this frame; this goroutine was the
			// tallied abandoned worker and has now retired.
			e.abandonedDone()
		}
		done <- result{res, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var cancel <-chan struct{}
	if j.ctx != nil {
		cancel = j.ctx.Done()
	}
	select {
	case r := <-done:
		return r.res, r.err
	case <-timer.C:
		if !e.abandonFrame(&fate) {
			r := <-done
			return r.res, r.err
		}
		metrics().timeouts.Inc()
		w.reset()
		return none, fmt.Errorf("%w (%v)", ErrFrameTimeout, timeout)
	case <-cancel:
		if !e.abandonFrame(&fate) {
			r := <-done
			return r.res, r.err
		}
		w.reset()
		return none, j.ctx.Err()
	}
}

// Product is one encoded frame from either path; exactly one field is
// set. Core carries the specialized SledZig result, Generic the registry
// codec's rendered frame.
type Product struct {
	Core    *core.EncodeResult
	Generic *codec.Encoded
}

// decodeFrame decodes j's waveform. The frame trace is threaded into the
// receive pipeline; a frame abandoned to its deadline and finished late
// drops its late span writes.
func decodeFrame(w workerState, j *job) (*DecodeResult, error) {
	if w.cdc != nil {
		setTrace(w.cdc, j.tr)
		defer setTrace(w.cdc, nil)
		dec, err := w.cdc.Decode(j.waveform)
		if err != nil {
			return nil, err
		}
		return &DecodeResult{Payload: dec.Payload, Channel: dec.Channel, Codec: w.e.cfg.Codec}, nil
	}
	w.dec.rxr.Trace = j.tr
	w.dec.dec.Trace = j.tr
	return w.dec.decodeOne(j.waveform)
}

// encodeFrame encodes j's payload, with the frame trace threaded in.
func encodeFrame(w workerState, j *job) (*Product, error) {
	if w.cdc != nil {
		setTrace(w.cdc, j.tr)
		defer setTrace(w.cdc, nil)
		enc, err := w.cdc.Encode(j.payload)
		if err != nil {
			return nil, err
		}
		return &Product{Generic: enc}, nil
	}
	w.enc.Trace = j.tr
	res := new(core.EncodeResult)
	if err := w.enc.EncodeTo(j.payload, res); err != nil {
		return nil, err
	}
	return &Product{Core: res}, nil
}

func (e *Engine) worker(i int) {
	defer e.wg.Done()
	m := metrics()
	w := &workerState{e: e, i: i}
	w.stages[encoding.k] = m.workerStage(i, "encode")
	w.stages[decoding.k] = m.workerStage(i, "decode")
	w.reset()
	// A worker stops taking jobs once the engine quits, so what is queued
	// then is shed by Drain's own sweep and counted in its report.
	for !e.quitting() {
		select {
		case <-e.quit:
			return
		case j := <-e.jobs:
			m.queueDepth.Add(-1)
			e.dispatch(w, j)
		}
	}
}

// serve runs one dequeued job on worker w and settles it: the trace and
// latency histogram close, the caller gets the outcome, and the frame's
// reservation is released. With w nil, or once the engine has quit, the
// job is shed with ErrDraining instead of run.
func serve[In, R any](e *Engine, w *workerState, j *job, d *direction[In, R], deliver func(int, R, error)) {
	m := metrics()
	var res R
	var err error
	ran, shed := false, w == nil || e.quitting()
	if shed {
		err = ErrDraining
		e.drainShedN.Add(1)
		e.noteShed(&e.sheds.draining, m.shedDraining)
	} else {
		j.tr.Dequeued(w.i)
		// A dead context fails the frame before any PHY work: cancellation
		// drains the queue promptly instead of running doomed frames.
		if j.ctx != nil {
			err = j.ctx.Err()
		}
		if err == nil {
			ran = true
			st := w.stages[d.k]
			t0 := st.Start()
			if res, err = runFrame(w, j, d); err != nil {
				st.Fail(t0)
				m.failures[d.k].Inc()
			} else {
				st.Done(t0, d.size(j, res))
			}
		}
	}
	e.finishFrame(m.frameLatency[d.k], j, err)
	deliver(j.idx, res, err)
	if j.done != nil {
		j.done.Done()
	}
	if !ran {
		e.breaker.Release(j.probe)
	} else if e.breaker.Record(e.now(), j.probe, err != nil) {
		publishHealthGauge()
	}
	e.releaseInflight(!shed)
}

// finishFrame closes the frame's trace with its outcome, observes its
// enqueue-to-outcome latency (with an exemplar naming the trace when the
// frame was traced), and triggers a flight-recorder fault dump for
// contained panics and deadline abandonments.
func (e *Engine) finishFrame(h *obs.Histogram, j *job, err error) {
	now := e.now()
	secs := now.Sub(j.enq).Seconds()
	if j.tr == nil {
		h.Observe(secs)
		return
	}
	j.tr.Finish(err)
	h.ObserveExemplar(secs, j.tr.TraceIDHex(), now.UnixNano())
	if errors.Is(err, ErrFramePanic) {
		trace.Fault("frame_panic")
	} else if errors.Is(err, ErrFrameTimeout) {
		trace.Fault("frame_timeout")
	}
}

// admission is the engine-state gate in front of submit: new work fails
// with ErrDraining once Drain starts and ErrClosed once it ends. A batch
// passes it once, so a batch admitted before a drain starts keeps
// submitting its frames, and the drain flushes or sheds them like any
// other; a stream passes it per input.
func (e *Engine) admission() error {
	switch e.state.Load() {
	case admitClosed:
		return ErrClosed
	case admitDraining:
		e.noteShed(&e.sheds.draining, metrics().shedDraining)
		return ErrDraining
	}
	return nil
}

// submit admits and enqueues one job. Admission runs the reliability
// ladder in order: the abandoned-worker cap, the circuit breaker, the
// inflight cap, then the bounded queue wait — each stage sheds with its
// own typed error rather than stalling the caller.
func (e *Engine) submit(ctx context.Context, j *job) error {
	m := metrics()
	if limit := e.abandonedCap(); limit > 0 && int(e.abandoned.Load()) >= limit {
		e.noteShed(&e.sheds.abandoned, m.shedAbandoned)
		return e.overload(OverloadAbandoned, 0)
	}
	j.enq = e.now()
	admit, probe := e.breaker.Allow(j.enq)
	if !admit {
		e.noteShed(&e.sheds.circuit, m.shedCircuit)
		return fmt.Errorf("%w: codec %q failing fast", ErrCircuitOpen, e.codecName())
	}
	j.probe = probe
	// Reserve the inflight slot before the send: a worker finishing the
	// job must never release a reservation that was not yet taken, or the
	// drain-complete signal could fire with work still admitted.
	n := e.inflight.Add(1)
	if n&quitBit != 0 {
		// The engine quit before this reservation; nothing waits on it.
		e.inflight.Add(-1)
		e.breaker.Release(probe)
		return ErrClosed
	}
	if limit := e.cfg.MaxInflight; limit > 0 && int(n) > limit {
		e.unreserve(probe)
		e.noteShed(&e.sheds.inflight, m.shedInflight)
		return e.overload(OverloadInflight, 0)
	}
	// A nil expire channel never fires: MaxQueueWait <= 0 keeps the
	// blocking backpressure contract (wait for capacity, the caller's
	// context, or the engine quitting).
	var expire <-chan time.Time
	if e.cfg.MaxQueueWait > 0 {
		timer := time.NewTimer(e.cfg.MaxQueueWait)
		defer timer.Stop()
		expire = timer.C
	}
	select {
	case e.jobs <- j:
		m.queueDepth.Add(1)
		// The send can win the race against quit closing after the last
		// sweep; sweep again so no job is stranded where no worker reads.
		if e.quitting() {
			e.shedQueue()
		}
		return nil
	case <-expire:
		e.unreserve(probe)
		e.noteShed(&e.sheds.queueWait, m.shedQueueWait)
		return e.overload(OverloadQueueWait, e.now().Sub(j.enq))
	case <-ctx.Done():
		e.unreserve(probe)
		return ctx.Err()
	case <-e.quit:
		e.unreserve(probe)
		e.noteShed(&e.sheds.draining, m.shedDraining)
		return ErrDraining
	}
}

// unreserve hands back the reservation (and probe slot) of a submission
// that did not enqueue. A reservation still pending when the engine quit
// was counted in pendingAtQuit, so it ends as a drain shed.
func (e *Engine) unreserve(probe bool) {
	if e.releaseInflight(false) {
		e.drainShedN.Add(1)
	}
	e.breaker.Release(probe)
}

// enqueue builds the job for one input and submits it.
func (d *direction[In, R]) enqueue(e *Engine, ctx context.Context, in In, idx int, deliver func(int, R, error), done *sync.WaitGroup) error {
	j := &job{idx: idx, ctx: ctx, done: done, tr: d.start()}
	d.bind(j, in, deliver)
	j.tr.Enqueued()
	err := e.submit(ctx, j)
	if err != nil {
		j.tr.Finish(err)
	}
	return err
}

// Outcome is one frame's result in a per-frame batch: exactly one of
// Result and Err is set.
type Outcome[R any] struct {
	Result R
	Err    error
}

// EncodeOutcome and DecodeOutcome are the per-frame results of EncodeEach
// and DecodeEach.
type (
	EncodeOutcome = Outcome[*Product]
	DecodeOutcome = Outcome[*DecodeResult]
)

// each runs one per-frame batch across the pool and returns one outcome
// per input, in input order. A submission error fails the input it hit
// and every later one; frames already admitted are still waited for.
func each[In, R any](e *Engine, ctx context.Context, d *direction[In, R], ins []In) []Outcome[R] {
	m := metrics()
	start := e.now()
	outs := make([]Outcome[R], len(ins))
	var done sync.WaitGroup
	deliver := func(idx int, res R, err error) {
		outs[idx] = Outcome[R]{Result: res, Err: err}
	}
	err := e.admission()
	for i, in := range ins {
		done.Add(1)
		if err == nil {
			err = d.enqueue(e, ctx, in, i, deliver, &done)
		}
		if err != nil {
			done.Done()
			for k := i; k < len(ins); k++ {
				outs[k] = Outcome[R]{Err: err}
			}
			break
		}
	}
	done.Wait()
	m.batchLatency[d.k].ObserveDuration(e.now().Sub(start))
	m.batches[d.k].Inc()
	ok := 0
	for _, o := range outs {
		if o.Err == nil {
			ok++
		}
	}
	m.frames[d.k].Add(uint64(ok))
	return outs
}

// batch is each with the all-or-nothing contract: the results in input
// order, or the first error by input order.
func batch[In, R any](e *Engine, ctx context.Context, d *direction[In, R], ins []In) ([]R, error) {
	outs := each(e, ctx, d, ins)
	results := make([]R, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("engine: %s %d: %w", d.input, i, o.Err)
		}
		results[i] = o.Result
	}
	return results, nil
}

// EncodeEach encodes every payload across the pool and returns one outcome
// per input, in input order. A failing frame — invalid payload, panic
// converted by the worker, deadline — fails only its own slot; siblings
// complete normally. A cancelled context fails the unsubmitted and
// undecoded remainder with the context error but still waits for frames
// already on a worker.
func (e *Engine) EncodeEach(ctx context.Context, payloads [][]byte) []EncodeOutcome {
	return each(e, ctx, encoding, payloads)
}

// EncodeBatch encodes every payload across the pool and returns the
// results in input order. The first error (by input order) is returned
// after all submitted work has drained; a cancelled context abandons the
// unsubmitted remainder but still waits for in-flight frames. Callers that
// need sibling results to survive one bad frame use EncodeEach.
func (e *Engine) EncodeBatch(ctx context.Context, payloads [][]byte) ([]*Product, error) {
	return batch(e, ctx, encoding, payloads)
}

// Close is Drain with no deadline: it stops admission, flushes every
// admitted frame, and waits for the workers to exit. Safe to call more
// than once and to mix with Drain.
func (e *Engine) Close() { e.Drain(context.Background()) }
