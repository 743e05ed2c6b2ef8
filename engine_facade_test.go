package sledzig

import (
	"context"
	"testing"
)

func TestEngineEncodeBatchMatchesEncoder(t *testing.T) {
	cfg := Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH2}
	eng, err := NewEngine(EngineConfig{Config: cfg, Workers: 4})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}

	payloads := make([][]byte, 10)
	for i := range payloads {
		p := make([]byte, 60+17*i)
		for j := range p {
			p[j] = byte(i ^ j)
		}
		payloads[i] = p
	}
	frames, err := eng.EncodeBatch(context.Background(), payloads)
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	for i, p := range payloads {
		want, err := enc.Encode(p)
		if err != nil {
			t.Fatalf("Encode %d: %v", i, err)
		}
		wantWave, err := want.Waveform()
		if err != nil {
			t.Fatalf("Waveform %d: %v", i, err)
		}
		gotWave, err := frames[i].Waveform()
		if err != nil {
			t.Fatalf("batch Waveform %d: %v", i, err)
		}
		if len(wantWave) != len(gotWave) {
			t.Fatalf("payload %d: waveform lengths differ (%d vs %d)", i, len(gotWave), len(wantWave))
		}
		for s := range wantWave {
			if wantWave[s] != gotWave[s] {
				t.Fatalf("payload %d: batch waveform diverges from sequential at sample %d", i, s)
			}
		}
	}
}

func TestEngineStreamRoundTrip(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Config: Config{Channel: CH1}, Workers: 2})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	dec, err := NewDecoder(Config{})
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}

	payloads := make([][]byte, 8)
	for i := range payloads {
		p := make([]byte, 30+i)
		for j := range p {
			p[j] = byte(3*i + j)
		}
		payloads[i] = p
	}
	in := make(chan []byte)
	go func() {
		defer close(in)
		for _, p := range payloads {
			in <- p
		}
	}()
	delivered := 0
	for sf := range eng.Stream(context.Background(), in) {
		if sf.Err != nil {
			t.Fatalf("stream frame %d: %v", sf.Index, sf.Err)
		}
		wave, err := sf.Frame.Waveform()
		if err != nil {
			t.Fatalf("Waveform %d: %v", sf.Index, err)
		}
		res, err := dec.Decode(wave)
		if err != nil {
			t.Fatalf("Decode %d: %v", sf.Index, err)
		}
		if res.Channel != CH1 {
			t.Fatalf("frame %d: detected %v, want CH1", sf.Index, res.Channel)
		}
		got, want := res.Payload, payloads[sf.Index]
		if len(got) != len(want) {
			t.Fatalf("frame %d: payload length %d != %d", sf.Index, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("frame %d: payload diverges at %d", sf.Index, j)
			}
		}
		delivered++
	}
	if delivered != len(payloads) {
		t.Fatalf("delivered %d of %d frames", delivered, len(payloads))
	}
}

func TestEngineDecodeBatchMatchesDecodeDetailed(t *testing.T) {
	cfg := Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH2}
	eng, err := NewEngine(EngineConfig{Config: cfg, Workers: 4})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	dec, err := NewDecoder(Config{})
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}

	payloads := make([][]byte, 10)
	for i := range payloads {
		p := make([]byte, 60+17*i)
		for j := range p {
			p[j] = byte(i ^ j)
		}
		payloads[i] = p
	}
	frames, err := eng.EncodeBatch(context.Background(), payloads)
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	waves := make([][]complex128, len(frames))
	for i, f := range frames {
		waves[i], err = f.Waveform()
		if err != nil {
			t.Fatalf("Waveform %d: %v", i, err)
		}
	}
	results, err := eng.DecodeBatch(context.Background(), waves)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	for i, w := range waves {
		want, err := dec.Decode(w)
		if err != nil {
			t.Fatalf("Decode %d: %v", i, err)
		}
		got := results[i]
		if string(got.Payload) != string(want.Payload) {
			t.Fatalf("waveform %d: payload differs from Decode", i)
		}
		if string(got.Payload) != string(payloads[i]) {
			t.Fatalf("waveform %d: payload does not round-trip", i)
		}
		if got.Channel != want.Channel || got.Modulation != want.Modulation ||
			got.CodeRate != want.CodeRate || got.ScramblerSeed != want.ScramblerSeed {
			t.Fatalf("waveform %d: header fields differ from Decode", i)
		}
		if got.ExtraBits != want.ExtraBits || got.NumSymbols != want.NumSymbols {
			t.Fatalf("waveform %d: layout accounting differs from Decode", i)
		}
		if len(got.SymbolEVM) != len(want.SymbolEVM) {
			t.Fatalf("waveform %d: EVM lengths differ", i)
		}
		for s := range want.SymbolEVM {
			if got.SymbolEVM[s] != want.SymbolEVM[s] {
				t.Fatalf("waveform %d: EVM[%d] differs", i, s)
			}
		}
	}
}

func TestDecodeDetailed(t *testing.T) {
	cfg := Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH3}
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	payload := []byte("detailed decode result fields under test")
	frame, err := enc.Encode(payload)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatalf("Waveform: %v", err)
	}
	dec, err := NewDecoder(Config{})
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	res, err := dec.Decode(wave)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if string(res.Payload) != string(payload) {
		t.Fatalf("payload %q != %q", res.Payload, payload)
	}
	if res.Channel != CH3 {
		t.Fatalf("channel %v, want CH3", res.Channel)
	}
	if res.Modulation != QAM64 || res.CodeRate != Rate34 {
		t.Fatalf("mode %v r=%v, want QAM-64 r=3/4", res.Modulation, res.CodeRate)
	}
	if res.NumSymbols != frame.NumSymbols() {
		t.Fatalf("NumSymbols %d != %d", res.NumSymbols, frame.NumSymbols())
	}
	if res.ExtraBits != frame.ExtraBits() {
		t.Fatalf("ExtraBits %d != %d", res.ExtraBits, frame.ExtraBits())
	}
	if len(res.SymbolEVM) != res.NumSymbols {
		t.Fatalf("SymbolEVM has %d entries for %d symbols", len(res.SymbolEVM), res.NumSymbols)
	}
	for s, evm := range res.SymbolEVM {
		// The default receive path carries I/Q as complex64, so a clean
		// channel bottoms out at the float32 rounding floor (~1e-7), not
		// the old complex128 floor. Anything above 1e-6 is a real defect.
		if evm > 1e-6 {
			t.Fatalf("symbol %d: EVM %g on a clean channel", s, evm)
		}
	}
	if res.ScramblerSeed == 0 {
		t.Fatal("ScramblerSeed not reported")
	}
}
