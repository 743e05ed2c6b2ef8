package engine

import (
	"context"

	"sledzig/internal/core"
	"sledzig/internal/wifi"
)

// DecodeResult is one demodulated and payload-stripped frame. Every slice
// is freshly allocated per frame — the worker's pooled receive buffers
// never leak into results, so callers may retain them indefinitely.
// Generic codec backends fill Payload, Channel and Codec only.
type DecodeResult struct {
	// Payload is the recovered original payload.
	Payload []byte
	// Channel is the protected ZigBee channel detected from the
	// constellation (configured, for fixed-channel codec backends).
	Channel core.ZigBeeChannel
	// Codec names the backend that decoded the frame.
	Codec string
	// Mode is the modulation and code rate signalled in the PLCP header.
	Mode wifi.Mode
	// ScramblerSeed is the seed the descrambler used.
	ScramblerSeed uint8
	// ExtraBits is how many extra bits the frame spent on the
	// constellation constraints.
	ExtraBits int
	// NumSymbols is the DATA-field length in OFDM symbols.
	NumSymbols int
	// SymbolEVM is the per-DATA-symbol RMS error-vector magnitude of the
	// equalized points against the nearest ideal points.
	SymbolEVM []float64
}

// decoderState is the per-worker receive pipeline: a receiver whose
// RxResult buffers are recycled across frames, and the stripping decoder.
type decoderState struct {
	rxr wifi.Receiver
	dec core.Decoder
	rx  wifi.RxResult
}

func (e *Engine) newDecoderState() *decoderState {
	seed := e.cfg.Seed
	if seed == 0 {
		seed = wifi.DefaultScramblerSeed
	}
	return &decoderState{
		rxr: wifi.Receiver{Seed: seed, Convention: e.cfg.Convention, Resync: e.cfg.Resilient, WideIQ: e.cfg.WideIQ},
		dec: core.Decoder{Convention: e.cfg.Convention},
	}
}

// decodeOne demodulates one waveform with the worker's recycled buffers
// and builds a self-contained result.
func (d *decoderState) decodeOne(waveform []complex128) (*DecodeResult, error) {
	if err := d.rxr.ReceiveInto(waveform, &d.rx); err != nil {
		return nil, err
	}
	payload, ch, err := d.dec.DecodeAuto(&d.rx)
	if err != nil {
		return nil, err
	}
	res := &DecodeResult{
		Payload:       payload,
		Channel:       ch,
		Codec:         codecSledZig,
		Mode:          d.rx.Mode,
		ScramblerSeed: d.rxr.Seed,
		NumSymbols:    len(d.rx.DataPoints),
		SymbolEVM:     wifi.SymbolEVM(d.rx.Mode.Modulation, d.rx.DataPoints),
	}
	// The extra-bit count follows from the detected plan's layout; both the
	// plan and its per-length layouts are cached process-wide.
	if plan, perr := core.CachedPlan(d.dec.Convention, d.rx.Mode, ch); perr == nil {
		if layout, lerr := plan.FrameLayout(len(d.rx.DataPoints)); lerr == nil {
			res.ExtraBits = len(layout.Positions)
		}
	}
	return res, nil
}

// DecodeEach decodes every waveform across the pool and returns one
// outcome per input, in input order. A hostile waveform — truncated, bit
// garbage, one that panics or stalls the decoder — fails only its own
// slot; siblings decode normally. A cancelled context fails the remainder
// with the context error but still waits for frames already on a worker.
func (e *Engine) DecodeEach(ctx context.Context, waveforms [][]complex128) []DecodeOutcome {
	return each(e, ctx, decoding, waveforms)
}

// DecodeBatch decodes every waveform across the pool and returns the
// results in input order — byte-identical to a sequential receiver with the
// same configuration. The first error (by input order) is returned after
// all submitted work has drained; a cancelled context abandons the
// unsubmitted remainder but still waits for in-flight frames. Callers that
// need sibling results to survive one bad frame use DecodeEach.
func (e *Engine) DecodeBatch(ctx context.Context, waveforms [][]complex128) ([]*DecodeResult, error) {
	return batch(e, ctx, decoding, waveforms)
}

// DecodeStream decodes waveforms read from in across the pool, with the
// delivery, backpressure and drain contract of Stream.
func (e *Engine) DecodeStream(ctx context.Context, in <-chan []complex128) <-chan DecodeStreamResult {
	return stream(e, ctx, decoding, in)
}
