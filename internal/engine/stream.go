package engine

import (
	"context"
	"sync"
)

// Streamed is one streamed outcome. Index is the zero-based position of
// the input in its stream.
type Streamed[R any] struct {
	Index  int
	Result R
	Err    error
}

// StreamResult and DecodeStreamResult are the outcomes Stream and
// DecodeStream deliver.
type (
	StreamResult       = Streamed[*Product]
	DecodeStreamResult = Streamed[*DecodeResult]
)

// Stream encodes payloads read from in across the pool, delivering results
// on the returned channel (buffered to Config.Queue). Results carry the
// input index; with more than one worker the delivery order is
// unspecified. The output channel is closed once every accepted input has
// been delivered, after in closes or ctx is cancelled. Both queues are
// bounded: a stalled consumer blocks the workers, a full job queue blocks
// the reader — backpressure propagates to the producer instead of
// buffering unboundedly. When the engine quits (Drain's deadline, or the
// end of its flush), outcomes the consumer has not taken are dropped and
// counted as abandoned in the DrainReport.
func (e *Engine) Stream(ctx context.Context, in <-chan []byte) <-chan StreamResult {
	return stream(e, ctx, encoding, in)
}

func stream[In, R any](e *Engine, ctx context.Context, d *direction[In, R], in <-chan In) <-chan Streamed[R] {
	out := make(chan Streamed[R], e.cfg.Queue)
	go func() {
		defer close(out)
		var inflight sync.WaitGroup
		deliver := func(idx int, res R, err error) {
			emit(ctx, e.quit, out, Streamed[R]{Index: idx, Result: res, Err: err})
		}
		for idx := 0; ; idx++ {
			var x In
			ok := false
			select {
			case <-ctx.Done():
			case x, ok = <-in:
			}
			if !ok {
				break
			}
			inflight.Add(1)
			err := e.admission()
			if err == nil {
				err = d.enqueue(e, ctx, x, idx, deliver, &inflight)
			}
			if err != nil {
				inflight.Done()
				emit(ctx, e.quit, out, Streamed[R]{Index: idx, Err: err})
				break
			}
		}
		inflight.Wait()
	}()
	return out
}

// emit hands v to a stream consumer. A result that fits the buffer is
// always delivered; otherwise emit waits for the consumer, giving up when
// the consumer's ctx dies or the engine quits, so a stalled consumer never
// holds a worker or Drain past the drain deadline.
func emit[T any](ctx context.Context, quit <-chan struct{}, out chan<- T, v T) {
	select {
	case out <- v:
		return
	default:
	}
	select {
	case out <- v:
	case <-ctx.Done():
	case <-quit:
	}
}
