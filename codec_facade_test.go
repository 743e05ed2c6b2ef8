package sledzig

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// TestCodecsLists checks the public registry view.
func TestCodecsLists(t *testing.T) {
	names := Codecs()
	for _, want := range []string{CodecSledZig, CodecOOK, CodecOfdmFi} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("Codecs() = %v misses %q", names, want)
		}
	}
}

// TestConfigUnknownCodec checks that a mistyped codec name is an
// ErrInvalidConfig everywhere a Config is consumed.
func TestConfigUnknownCodec(t *testing.T) {
	cfg := Config{Channel: CH2, Codec: "nope"}
	if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("Validate: %v does not wrap ErrInvalidConfig", err)
	}
	if _, err := NewEncoder(cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewEncoder: %v does not wrap ErrInvalidConfig", err)
	}
	if _, err := NewDecoder(cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewDecoder: %v does not wrap ErrInvalidConfig", err)
	}
	if _, err := NewEngine(EngineConfig{Config: cfg}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewEngine: %v does not wrap ErrInvalidConfig", err)
	}
}

// TestConstructorsValidateUniformly checks the construction-order
// contract: NewEncoder, NewDecoder and NewEngine all resolve defaults and
// validate, so a bad non-codec field fails identically in all three.
func TestConstructorsValidateUniformly(t *testing.T) {
	cfg := Config{Channel: CH2, ScramblerSeed: 200}
	if _, err := NewEncoder(cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewEncoder: %v does not wrap ErrInvalidConfig", err)
	}
	if _, err := NewDecoder(cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewDecoder: %v does not wrap ErrInvalidConfig", err)
	}
	if _, err := NewEngine(EngineConfig{Config: cfg}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewEngine: %v does not wrap ErrInvalidConfig", err)
	}
}

// TestGenericCodecNeedsChannel checks that fixed-channel backends reject a
// channel-less config with ErrInvalidChannel from every constructor.
func TestGenericCodecNeedsChannel(t *testing.T) {
	for _, name := range []string{CodecOOK, CodecOfdmFi} {
		cfg := Config{Codec: name}
		if _, err := NewEncoder(cfg); !errors.Is(err, ErrInvalidChannel) {
			t.Fatalf("NewEncoder(%s): %v does not wrap ErrInvalidChannel", name, err)
		}
		if _, err := NewDecoder(cfg); !errors.Is(err, ErrInvalidChannel) {
			t.Fatalf("NewDecoder(%s): %v does not wrap ErrInvalidChannel", name, err)
		}
		if _, err := NewEngine(EngineConfig{Config: cfg}); !errors.Is(err, ErrInvalidChannel) {
			t.Fatalf("NewEngine(%s): %v does not wrap ErrInvalidChannel", name, err)
		}
	}
}

// TestFacadeCodecRoundTrip drives every registered backend through the
// public Encoder/Decoder surface.
func TestFacadeCodecRoundTrip(t *testing.T) {
	for _, name := range Codecs() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Channel: CH2, Codec: name}
			enc, err := NewEncoder(cfg)
			if err != nil {
				t.Fatalf("NewEncoder: %v", err)
			}
			dec, err := NewDecoder(cfg)
			if err != nil {
				t.Fatalf("NewDecoder: %v", err)
			}
			payload := []byte("facade round trip through " + name)
			frame, err := enc.Encode(payload)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if frame.Codec() != name {
				t.Fatalf("Frame.Codec() = %q, want %q", frame.Codec(), name)
			}
			if frame.NumSymbols() <= 0 || frame.AirtimeSeconds() <= 0 {
				t.Fatalf("degenerate frame: %d symbols, %g s", frame.NumSymbols(), frame.AirtimeSeconds())
			}
			wave, err := frame.Waveform()
			if err != nil {
				t.Fatalf("Waveform: %v", err)
			}
			res, err := dec.Decode(wave)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !bytes.Equal(res.Payload, payload) {
				t.Fatal("payload mismatch through facade round trip")
			}
			if res.Channel != CH2 {
				t.Fatalf("channel %v, want CH2", res.Channel)
			}
			if res.Codec != name {
				t.Fatalf("DecodeResult.Codec = %q, want %q", res.Codec, name)
			}
		})
	}
}

// TestFrameProtectedSymbols checks the per-backend protection contract
// surfaced on the public Frame.
func TestFrameProtectedSymbols(t *testing.T) {
	payload := []byte("protection mask probe")
	whole, err := NewEncoder(Config{Channel: CH2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := whole.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if mask := f.ProtectedSymbols(); mask != nil {
		t.Fatalf("sledzig frame mask = %v, want nil (whole frame)", mask)
	}
	ook, err := NewEncoder(Config{Channel: CH2, Codec: CodecOOK})
	if err != nil {
		t.Fatal(err)
	}
	f, err = ook.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	mask := f.ProtectedSymbols()
	if len(mask) != f.NumSymbols() {
		t.Fatalf("ook mask of %d entries for %d symbols", len(mask), f.NumSymbols())
	}
	lows := 0
	for _, prot := range mask {
		if prot {
			lows++
		}
	}
	if lows == 0 || lows == len(mask) {
		t.Fatalf("ook mask protects %d of %d symbols; want a proper subset", lows, len(mask))
	}
}

// TestDecodeErrorIdentity: both Decode paths — the codec decode and the
// standard-frame option — preserve errors.Is against the taxonomy.
func TestDecodeErrorIdentity(t *testing.T) {
	dec, err := NewDecoder(Config{Channel: CH3})
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]complex128, 64)
	_, uerr := dec.Decode(garbage)
	_, nerr := dec.Decode(garbage, AsStandardFrame())
	for _, e := range []error{uerr, nerr} {
		if !errors.Is(e, ErrNoPreamble) {
			t.Fatalf("short-capture error %v does not wrap ErrNoPreamble", e)
		}
	}
}

// TestDecodeAsStandardFrame checks the option path: the same capture
// decodes as a raw PSDU with codec stages skipped.
func TestDecodeAsStandardFrame(t *testing.T) {
	cfg := Config{Channel: CH1}
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := enc.Encode([]byte("standard-frame option probe"))
	if err != nil {
		t.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatal(err)
	}
	res, err := dec.Decode(wave, AsStandardFrame())
	if err != nil {
		t.Fatalf("Decode(AsStandardFrame): %v", err)
	}
	if res.Codec != "" || res.Channel != 0 {
		t.Fatalf("standard decode reported codec %q channel %v; want raw PSDU view", res.Codec, res.Channel)
	}
}

// TestEngineGenericCodec runs batch encode/decode through the pool with a
// non-default backend selected by Config.Codec.
func TestEngineGenericCodec(t *testing.T) {
	for _, name := range []string{CodecOOK, CodecOfdmFi} {
		t.Run(name, func(t *testing.T) {
			eng, err := NewEngine(EngineConfig{Config: Config{Channel: CH2, Codec: name}, Workers: 2})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			defer eng.Close()
			payloads := [][]byte{
				[]byte("engine batch frame zero"),
				[]byte("engine batch frame one is longer"),
				[]byte("f2"),
			}
			frames, err := eng.EncodeBatch(context.Background(), payloads)
			if err != nil {
				t.Fatalf("EncodeBatch: %v", err)
			}
			waves := make([][]complex128, len(frames))
			for i, f := range frames {
				if f.Codec() != name {
					t.Fatalf("frame %d codec %q, want %q", i, f.Codec(), name)
				}
				if waves[i], err = f.Waveform(); err != nil {
					t.Fatalf("Waveform %d: %v", i, err)
				}
			}
			results, err := eng.DecodeBatch(context.Background(), waves)
			if err != nil {
				t.Fatalf("DecodeBatch: %v", err)
			}
			for i, r := range results {
				if !bytes.Equal(r.Payload, payloads[i]) {
					t.Fatalf("frame %d payload mismatch", i)
				}
				if r.Codec != name || r.Channel != CH2 {
					t.Fatalf("frame %d reported codec %q channel %v", i, r.Codec, r.Channel)
				}
			}
		})
	}
}
