package engine

import (
	"context"
	"errors"
)

// ErrDraining is returned by submissions while Drain is flushing in-flight
// work. Unlike ErrOverloaded it is terminal for this engine: the caller
// should fail over, not retry.
var ErrDraining = errors.New("engine: draining")

// Admission states, held in Engine.state. Transitions only move forward:
// accepting -> draining -> closed.
const (
	admitAccepting int32 = iota
	admitDraining
	admitClosed
)

// DrainReport is Drain's account of how the in-flight work ended. Every
// frame pending when the drain starts, or admitted during it, is counted
// in exactly one of Flushed, Shed and Abandoned.
type DrainReport struct {
	// Flushed frames completed normally (delivered a result or a per-frame
	// error) between the drain starting and the engine quitting.
	Flushed uint64 `json:"flushed"`
	// Shed frames were still queued (or being submitted) when the engine
	// quit and were handed back to their callers with ErrDraining instead
	// of being run.
	Shed uint64 `json:"shed"`
	// Abandoned frames were admitted and unsettled when the deadline forced
	// the engine to quit: still on a worker, or waiting on a stream
	// consumer that stopped reading (that outcome is dropped).
	Abandoned int `json:"abandoned"`
	// Clean is true when every admitted frame flushed before the deadline.
	Clean bool `json:"clean"`
}

// Drain stops admission and flushes in-flight work, bounded by ctx. New
// batches and stream inputs fail immediately with ErrDraining; a batch
// admitted before the drain started keeps submitting its frames until the
// engine quits. If every admitted frame completes before ctx expires the
// drain is clean; otherwise the engine quits at the deadline: queued
// frames are handed back to their callers as ErrDraining outcomes, stream
// outcomes a stalled consumer has not taken are dropped, and the report
// counts what was flushed, shed, and abandoned. Drain never blocks past
// ctx's deadline on a consumer; a wedged worker is left behind and
// reported as abandoned.
//
// Safe to call concurrently and more than once: one caller performs the
// drain, the rest wait for the engine to quit (bounded by their own ctx)
// and report the terminal counters.
func (e *Engine) Drain(ctx context.Context) DrainReport {
	if !e.state.CompareAndSwap(admitAccepting, admitDraining) {
		select {
		case <-e.quit:
		case <-ctx.Done():
		}
		e.wgWaitBounded(ctx)
		return e.drainReport()
	}
	metrics().drains.Inc()
	publishHealthGauge()

	// Admission is stopped; in-flight frames release their reservation as
	// they finish. If none were in flight the drain completes immediately.
	if e.pending() == 0 {
		e.drainOnce.Do(func() { close(e.drained) })
	}
	// Check the drained signal before racing it against the deadline: a
	// drain that is already complete must be clean even if ctx expired.
	select {
	case <-e.drained:
	default:
		select {
		case <-e.drained:
		case <-ctx.Done():
		}
	}
	e.shutdown()
	e.wgWaitBounded(ctx)
	e.state.Store(admitClosed)
	unregisterEngine(e)
	return e.drainReport()
}

// shutdown quits the engine; only the Drain that moved the engine to
// draining calls it. Setting quitBit stops further reservations and records, in the
// same atomic step, how many frames were still pending. Closing quit then
// releases every blocked send and worker, and the sweep sheds what is
// queued.
func (e *Engine) shutdown() {
	for {
		n := e.inflight.Load()
		if e.inflight.CompareAndSwap(n, n|quitBit) {
			e.pendingAtQuit = n
			break
		}
	}
	close(e.quit)
	e.shedQueue()
}

// quitting reports whether the engine has quit.
func (e *Engine) quitting() bool { return e.inflight.Load()&quitBit != 0 }

// pending is the number of admitted-but-unsettled frames.
func (e *Engine) pending() int64 { return e.inflight.Load() &^ quitBit }

func (e *Engine) drainReport() DrainReport {
	shed := e.drainShedN.Load()
	abandoned := e.pending()
	select {
	case <-e.quit:
		// Frames pending at quit that were not shed missed the deadline.
		abandoned = e.pendingAtQuit - int64(shed)
	default:
	}
	abandoned = max(abandoned, 0)
	return DrainReport{
		Flushed:   e.drainFlushed.Load(),
		Shed:      shed,
		Abandoned: int(abandoned),
		Clean:     shed == 0 && abandoned == 0,
	}
}

// wgWaitBounded waits for the workers to exit, giving up when ctx dies so a
// Drain deadline is honoured even with a wedged worker (its goroutine is
// then reported via Abandoned and the leak detector).
func (e *Engine) wgWaitBounded(ctx context.Context) {
	done := make(chan struct{})
	go func() { e.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
	}
}

// shedQueue empties whatever is currently queued, shedding each job with
// ErrDraining. Non-blocking: it returns as soon as the queue reads empty.
func (e *Engine) shedQueue() {
	m := metrics()
	for {
		select {
		case j := <-e.jobs:
			m.queueDepth.Add(-1)
			e.dispatch(nil, j)
		default:
			return
		}
	}
}

// releaseInflight returns one admission reservation and reports whether
// the engine had already quit. flushed marks a delivered outcome, which
// counts toward the drain's Flushed tally when it lands between the drain
// starting and the engine quitting. The last reservation out after
// admission stops signals drain completion.
func (e *Engine) releaseInflight(flushed bool) (afterQuit bool) {
	n := e.inflight.Add(-1)
	afterQuit = n&quitBit != 0
	draining := e.state.Load() != admitAccepting
	if flushed && draining && !afterQuit {
		e.drainFlushed.Add(1)
	}
	if n&^quitBit == 0 && draining {
		e.drainOnce.Do(func() { close(e.drained) })
	}
	return afterQuit
}
