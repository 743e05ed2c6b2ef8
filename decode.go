package sledzig

import (
	"sync"

	"sledzig/internal/codec"
	"sledzig/internal/core"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

// Decoder recovers payloads from received waveforms using the configured
// codec backend (SledZig by default). It is safe for concurrent use.
type Decoder struct {
	cfg Config

	// Non-default codec backends decode through the registry contract;
	// instances hold recycled state, so calls serialize on mu.
	cdc codec.Codec
	mu  sync.Mutex
}

// NewDecoder resolves the config defaults, validates it, and prepares the
// selected codec backend. For the default SledZig codec only Convention,
// ScramblerSeed and Resilient matter (mode and channel are read off the
// air); other codecs also need the Channel their receiver is fixed on.
func NewDecoder(cfg Config) (*Decoder, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Decoder{cfg: cfg}
	if cfg.Codec != CodecSledZig {
		cdc, err := cfg.newCodec()
		if err != nil {
			return nil, err
		}
		d.cdc = cdc
	}
	return d, nil
}

// DecodeResult carries everything Decode learns about a received frame
// beyond the payload itself. The SledZig codec fills every field; other
// codec backends fill Payload, Channel and Codec and leave the
// PHY-detail fields zero.
type DecodeResult struct {
	// Payload is the recovered original payload.
	Payload []byte
	// Channel is the protected ZigBee channel (detected from the
	// constellation for SledZig, configured for fixed-channel codecs;
	// zero for standard-frame decodes).
	Channel Channel
	// Codec names the backend that produced the result; empty for
	// standard-frame decodes (AsStandardFrame).
	Codec string
	// Modulation and CodeRate are the mode signalled in the PLCP header.
	Modulation Modulation
	CodeRate   CodeRate
	// ScramblerSeed is the seed the descrambler used (the configured one,
	// or the 802.11 Annex G default).
	ScramblerSeed uint8
	// ExtraBits is how many extra bits the frame spent on the
	// constellation constraints.
	ExtraBits int
	// NumSymbols is the DATA-field length in OFDM symbols.
	NumSymbols int
	// SymbolEVM is the per-DATA-symbol RMS error-vector magnitude of the
	// equalized constellation points against the nearest ideal points
	// (linear scale, relative to unit average constellation power). On a
	// clean channel it is ~0; it grows with noise and residual channel
	// error.
	SymbolEVM []float64
}

// DecodeOption customises one Decode call.
type DecodeOption func(*decodeOptions)

type decodeOptions struct {
	standard bool
}

// AsStandardFrame makes Decode treat the capture as a plain 802.11 PPDU:
// the codec-specific stages are skipped and the result carries the raw
// PSDU — useful for baseline comparisons against unmodified WiFi.
func AsStandardFrame() DecodeOption {
	return func(o *decodeOptions) { o.standard = true }
}

// Decode demodulates a PPDU waveform with the configured codec backend
// and returns the payload together with everything else the receive
// chain learned (see DecodeResult). For the default SledZig codec the
// protected channel is detected from the constellation and the extra
// bits are stripped; AsStandardFrame reads the capture as a plain 802.11
// PPDU instead. Decode is the decoder's single entry point.
func (d *Decoder) Decode(waveform []complex128, opts ...DecodeOption) (*DecodeResult, error) {
	var o decodeOptions
	for _, opt := range opts {
		opt(&o)
	}
	switch {
	case o.standard:
		return d.decodeStandard(waveform)
	case d.cdc != nil:
		return d.decodeCodec(waveform)
	}
	return d.decodeSledZig(waveform)
}

// seed resolves the configured scrambler seed.
func (d *Decoder) seed() uint8 {
	if d.cfg.ScramblerSeed == 0 {
		return wifi.DefaultScramblerSeed
	}
	return d.cfg.ScramblerSeed
}

// decodeSledZig is the default path: standard receive, channel detection,
// extra-bit strip.
func (d *Decoder) decodeSledZig(waveform []complex128) (*DecodeResult, error) {
	seed := d.seed()
	// Root frame trace (nil, and free, when no tracer is installed): the
	// receive pipeline and the SledZig stripper land their stage spans here.
	tf := trace.Start("decode")
	rx, err := wifi.Receiver{Seed: seed, Convention: d.cfg.Convention, Resync: d.cfg.Resilient, WideIQ: d.cfg.WideIQ, Trace: tf}.Receive(waveform)
	if err != nil {
		tf.Finish(err)
		return nil, wrapDecodeErr(err)
	}
	payload, ch, err := core.Decoder{Convention: d.cfg.Convention, Trace: tf}.DecodeAuto(rx)
	tf.Finish(err)
	if err != nil {
		return nil, wrapDecodeErr(err)
	}
	res := &DecodeResult{
		Payload:       payload,
		Channel:       ch,
		Codec:         CodecSledZig,
		Modulation:    rx.Mode.Modulation,
		CodeRate:      rx.Mode.CodeRate,
		ScramblerSeed: seed,
		NumSymbols:    len(rx.DataPoints),
		SymbolEVM:     wifi.SymbolEVM(rx.Mode.Modulation, rx.DataPoints),
	}
	// The extra-bit count follows from the detected plan's layout; the
	// plan cache makes this lookup free after the first frame.
	if plan, perr := core.CachedPlan(d.cfg.Convention, rx.Mode, ch); perr == nil {
		if layout, lerr := plan.FrameLayout(len(rx.DataPoints)); lerr == nil {
			res.ExtraBits = len(layout.Positions)
		}
	}
	return res, nil
}

// decodeStandard skips every codec stage and returns the raw PSDU.
func (d *Decoder) decodeStandard(waveform []complex128) (*DecodeResult, error) {
	seed := d.seed()
	tf := trace.Start("decode")
	rx, err := wifi.Receiver{Seed: seed, Convention: d.cfg.Convention, Resync: d.cfg.Resilient, WideIQ: d.cfg.WideIQ, Trace: tf}.Receive(waveform)
	tf.Finish(err)
	if err != nil {
		return nil, wrapDecodeErr(err)
	}
	return &DecodeResult{
		Payload:       rx.PSDU,
		Modulation:    rx.Mode.Modulation,
		CodeRate:      rx.Mode.CodeRate,
		ScramblerSeed: seed,
		NumSymbols:    len(rx.DataPoints),
		SymbolEVM:     wifi.SymbolEVM(rx.Mode.Modulation, rx.DataPoints),
	}, nil
}

// decodeCodec routes through the configured registry backend.
func (d *Decoder) decodeCodec(waveform []complex128) (*DecodeResult, error) {
	tf := trace.Start("decode")
	d.mu.Lock()
	t, traceable := d.cdc.(codec.Traceable)
	if traceable {
		t.SetTrace(tf)
	}
	dec, err := d.cdc.Decode(waveform)
	if traceable {
		t.SetTrace(nil)
	}
	d.mu.Unlock()
	tf.Finish(err)
	if err != nil {
		return nil, wrapDecodeErr(err)
	}
	return &DecodeResult{
		Payload: dec.Payload,
		Channel: dec.Channel,
		Codec:   d.cfg.Codec,
	}, nil
}
