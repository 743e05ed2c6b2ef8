package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"sledzig/internal/obs"
	"sledzig/internal/obs/trace"
)

// drainGrace is how far past its deadline a Drain may return.
const drainGrace = 250 * time.Millisecond

// drainWithin runs Drain with the given deadline and fails the test if it
// does not return within the deadline plus drainGrace.
func drainWithin(t *testing.T, e *Engine, deadline time.Duration) DrainReport {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	done := make(chan DrainReport, 1)
	start := time.Now()
	go func() { done <- e.Drain(ctx) }()
	select {
	case rep := <-done:
		return rep
	case <-time.After(deadline + drainGrace):
		t.Fatalf("Drain still blocked %v after its %v deadline", time.Since(start)-deadline, deadline)
		return DrainReport{}
	}
}

// stalledFed is how many inputs a stalled two-worker, two-slot pipeline
// takes: two read by the consumer, two in the output buffer, two parked on
// the workers, two queued, and one in the feeder's blocked send.
const stalledFed = 9

// checkStalledDrain drains a two-worker, two-slot engine whose only stream
// consumer stopped reading after two results. backedUp reports that the
// output buffer is full and the feeder has taken stalledFed inputs; with
// five frames pending that is the final state: both workers hold a frame
// they cannot deliver, the queue is full, and the feeder is parked in its
// send. Drain must return within its deadline with the queued frames shed
// and the parked outcomes abandoned. rest cancels the stream and drains
// what is left.
func checkStalledDrain(t *testing.T, e *Engine, backedUp func() bool, rest func() []error) {
	t.Helper()
	waitFor(t, "the stalled stream to back up", func() bool {
		r := e.Report()
		return backedUp() && r.Queue == 2 && r.Inflight == 5
	})
	rep := drainWithin(t, e, 200*time.Millisecond)
	if rep.Clean || rep.Flushed != 0 || rep.Shed < 2 || rep.Abandoned < 2 || rep.Shed+uint64(rep.Abandoned) != 5 {
		t.Fatalf("report = %+v, want the 5 pending frames shed or abandoned, the 2 parked ones abandoned", rep)
	}
	for _, err := range rest() {
		if err != nil && !errors.Is(err, ErrDraining) && !errors.Is(err, ErrClosed) &&
			!errors.Is(err, context.Canceled) {
			t.Fatalf("stream error not typed: %v", err)
		}
	}
	if e.Health() != Closed {
		t.Fatalf("health = %s, want closed", e.Health())
	}
}

func stalledConfig() Config {
	cfg := testConfig(2)
	cfg.Queue = 2
	return cfg
}

// TestDrainStalledStreamConsumer: a Stream consumer that stops reading
// cannot hold Drain past its deadline.
func TestDrainStalledStreamConsumer(t *testing.T) {
	leakCheck(t)
	e, err := New(stalledConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	payloads := testPayloads(16)
	in := make(chan []byte, len(payloads))
	for _, p := range payloads {
		in <- p
	}
	out := e.Stream(ctx, in)
	for i := 0; i < 2; i++ {
		if r := <-out; r.Err != nil {
			t.Fatalf("pre-stall result %d: %v", i, r.Err)
		}
	}
	backedUp := func() bool { return len(out) == cap(out) && len(in) == cap(in)-stalledFed }
	checkStalledDrain(t, e, backedUp, func() (errs []error) {
		cancel()
		for r := range out {
			errs = append(errs, r.Err)
		}
		return errs
	})
}

// TestDrainStalledDecodeStreamConsumer: the same for DecodeStream.
func TestDrainStalledDecodeStreamConsumer(t *testing.T) {
	leakCheck(t)
	e, err := New(stalledConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, waves := testWaveforms(t, e, 16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan []complex128, len(waves))
	for _, w := range waves {
		in <- w
	}
	out := e.DecodeStream(ctx, in)
	for i := 0; i < 2; i++ {
		if r := <-out; r.Err != nil {
			t.Fatalf("pre-stall result %d: %v", i, r.Err)
		}
	}
	backedUp := func() bool { return len(out) == cap(out) && len(in) == cap(in)-stalledFed }
	checkStalledDrain(t, e, backedUp, func() (errs []error) {
		cancel()
		for r := range out {
			errs = append(errs, r.Err)
		}
		return errs
	})
}

// TestDrainReleasesBlockedSubmitter: with the blocking submit contract
// (MaxQueueWait 0) and the only worker wedged, a submitter parked in the
// send when the deadline fires gets a typed error and its EncodeEach
// returns while the wedge still holds.
func TestDrainReleasesBlockedSubmitter(t *testing.T) {
	leakCheck(t)
	cfg := testConfig(1)
	cfg.Queue = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	entered, release := stallHook(t)
	wedged := make(chan error, 1)
	go func() { wedged <- e.EncodeEach(context.Background(), testPayloads(1))[0].Err }()
	<-entered
	blocked := make(chan []EncodeOutcome, 1)
	go func() { blocked <- e.EncodeEach(context.Background(), testPayloads(2)) }()
	waitFor(t, "the second submitter to park in its send", func() bool {
		r := e.Report()
		return r.Queue == 1 && r.Inflight == 3
	})

	start := time.Now()
	rep := drainWithin(t, e, 100*time.Millisecond)
	select {
	case outs := <-blocked:
		for i, o := range outs {
			if !errors.Is(o.Err, ErrDraining) && !errors.Is(o.Err, ErrClosed) {
				t.Fatalf("blocked frame %d: err = %v, want ErrDraining or ErrClosed", i, o.Err)
			}
		}
	case <-time.After(100*time.Millisecond + drainGrace - time.Since(start)):
		t.Fatal("blocked submitter's EncodeEach did not return by the drain deadline")
	}
	if rep.Clean || rep.Shed+uint64(rep.Abandoned) != 3 {
		t.Fatalf("report = %+v, want the 3 pending frames shed or abandoned", rep)
	}

	close(release)
	if err := <-wedged; err != nil {
		t.Fatalf("wedged frame should still complete after release: %v", err)
	}
}

// TestFrameLatencyObservedUntraced: every frame lands in its direction's
// frame-latency histogram even with tracing off.
func TestFrameLatencyObservedUntraced(t *testing.T) {
	if trace.Default() != nil {
		t.Fatal("test requires tracing off at entry")
	}
	oldReg := obs.Default()
	reg := obs.New()
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(oldReg) })

	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	const n = 5
	_, waves := testWaveforms(t, e, n) // an untraced EncodeBatch of n frames
	for i, o := range e.DecodeEach(context.Background(), waves) {
		if o.Err != nil {
			t.Fatalf("DecodeEach frame %d: %v", i, o.Err)
		}
	}
	snap := reg.Snapshot()
	for _, name := range []string{"engine.frame.encode.latency_seconds", "engine.frame.decode.latency_seconds"} {
		if got := snap.Histograms[name].Count; got != n {
			t.Fatalf("%s count = %d, want %d", name, got, n)
		}
	}
}
