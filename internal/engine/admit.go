package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sledzig/internal/obs"
)

// ErrOverloaded marks a frame shed by admission control: the engine judged
// that accepting it would stall the caller or grow unbounded state, and
// rejected it promptly instead. The concrete error is an *Overload whose
// fields (recoverable with errors.As) say which limit tripped and how deep
// the backlog was — the measurable backoff signal a gateway needs to
// spread load across backends.
var ErrOverloaded = errors.New("engine: overloaded")

// Shed reasons carried by Overload.Reason; each has its own
// engine.shed.<reason> counter in obs.
const (
	// OverloadQueueWait: the job queue stayed full for the whole
	// Config.MaxQueueWait window.
	OverloadQueueWait = "queue_wait"
	// OverloadInflight: Config.MaxInflight frames were already admitted
	// and undelivered.
	OverloadInflight = "inflight"
	// OverloadAbandoned: Config.MaxAbandoned timeout-abandoned workers
	// were still running; accepting the frame could spawn another.
	OverloadAbandoned = "abandoned_workers"
)

// Overload is the typed detail behind ErrOverloaded.
//
//	var ov *engine.Overload
//	if errors.As(err, &ov) { log.Printf("shed on %s, queue %d", ov.Reason, ov.QueueDepth) }
type Overload struct {
	// Reason names the limit that shed the frame: OverloadQueueWait,
	// OverloadInflight or OverloadAbandoned.
	Reason string
	// QueueDepth is the engine's queued-job count at the shed decision.
	QueueDepth int
	// Inflight is the admitted-but-undelivered frame count at the shed
	// decision.
	Inflight int
	// Wait is how long the submission waited before being shed (zero for
	// the fail-fast reasons).
	Wait time.Duration
}

func (o *Overload) Error() string {
	if o.Wait > 0 {
		return fmt.Sprintf("engine: overloaded (%s after %v): queue depth %d, inflight %d",
			o.Reason, o.Wait, o.QueueDepth, o.Inflight)
	}
	return fmt.Sprintf("engine: overloaded (%s): queue depth %d, inflight %d",
		o.Reason, o.QueueDepth, o.Inflight)
}

// Unwrap ties every Overload to the ErrOverloaded sentinel so errors.Is
// classification works alongside errors.As detail recovery.
func (o *Overload) Unwrap() error { return ErrOverloaded }

// overload builds the shed error for the current engine state.
func (e *Engine) overload(reason string, wait time.Duration) error {
	return &Overload{
		Reason:     reason,
		QueueDepth: len(e.jobs),
		Inflight:   int(e.pending()),
		Wait:       wait,
	}
}

// shedTally is the per-engine record of shed decisions by reason, kept
// alongside the process-wide obs counters so /debug/health can attribute
// sheds to one engine when several share the registry.
type shedTally struct {
	queueWait atomic.Uint64
	inflight  atomic.Uint64
	abandoned atomic.Uint64
	circuit   atomic.Uint64
	draining  atomic.Uint64
}

// ShedCounts is the JSON-friendly snapshot of a shedTally.
type ShedCounts struct {
	QueueWait        uint64 `json:"queue_wait"`
	Inflight         uint64 `json:"inflight"`
	AbandonedWorkers uint64 `json:"abandoned_workers"`
	CircuitOpen      uint64 `json:"circuit_open"`
	Draining         uint64 `json:"draining"`
}

func (s *shedTally) counts() ShedCounts {
	return ShedCounts{
		QueueWait:        s.queueWait.Load(),
		Inflight:         s.inflight.Load(),
		AbandonedWorkers: s.abandoned.Load(),
		CircuitOpen:      s.circuit.Load(),
		Draining:         s.draining.Load(),
	}
}

// Total sums the shed decisions across every reason.
func (s ShedCounts) Total() uint64 {
	return s.QueueWait + s.Inflight + s.AbandonedWorkers + s.CircuitOpen + s.Draining
}

// noteShed records one shed decision in the per-engine tally, the
// process-wide counter, and the recency mark the health state machine
// reads.
func (e *Engine) noteShed(tally *atomic.Uint64, c *obs.Counter) {
	tally.Add(1)
	c.Inc()
	e.lastShedNS.Store(e.now().UnixNano())
	publishHealthGauge()
}

// abandonedCap resolves Config.MaxAbandoned: 0 selects 16x the worker
// count, negative disables the cap.
func (e *Engine) abandonedCap() int {
	switch {
	case e.cfg.MaxAbandoned > 0:
		return e.cfg.MaxAbandoned
	case e.cfg.MaxAbandoned < 0:
		return 0
	default:
		return 16 * e.cfg.Workers
	}
}

// abandonedTake/abandonedDone bracket one abandoned frame goroutine's
// lifetime in the engine tally and the process gauge.
func (e *Engine) abandonedTake() {
	e.abandoned.Add(1)
	metrics().abandonedWorkers.Add(1)
	publishHealthGauge()
}

func (e *Engine) abandonedDone() {
	e.abandoned.Add(-1)
	metrics().abandonedWorkers.Add(-1)
	publishHealthGauge()
}

// abandonFrame marks one guarded frame as abandoned. It returns false when
// the frame finished concurrently (the worker should take the real result
// instead); the optimistic tally is rolled back by the frame goroutine's
// CAS failure path in that case.
func (e *Engine) abandonFrame(fate *atomic.Int32) bool {
	e.abandonedTake()
	if fate.CompareAndSwap(frameRunning, frameAbandoned) {
		return true
	}
	e.abandonedDone()
	return false
}

// fates of a guarded frame goroutine.
const (
	frameRunning int32 = iota
	frameFinished
	frameAbandoned
)
