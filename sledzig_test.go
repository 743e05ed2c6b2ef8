package sledzig

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	for _, conv := range []Convention{ConventionIEEE, ConventionPaper} {
		for _, ch := range []Channel{CH1, CH2, CH3, CH4} {
			enc, err := NewEncoder(Config{
				Modulation: QAM64,
				CodeRate:   Rate34,
				Channel:    ch,
				Convention: conv,
			})
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte("the quick brown fox jumps over the lazy dog 0123456789")
			frame, err := enc.Encode(payload)
			if err != nil {
				t.Fatal(err)
			}
			wave, err := frame.Waveform()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(Config{Convention: conv})
			if err != nil {
				t.Fatal(err)
			}
			res, err := dec.Decode(wave)
			if err != nil {
				t.Fatalf("%v %v: %v", conv, ch, err)
			}
			if res.Channel != ch {
				t.Fatalf("%v: detected %v, want %v", conv, res.Channel, ch)
			}
			if !bytes.Equal(res.Payload, payload) {
				t.Fatalf("%v %v: payload mismatch", conv, ch)
			}
		}
	}
}

func TestEncoderRequiresChannel(t *testing.T) {
	if _, err := NewEncoder(Config{Modulation: QAM16, CodeRate: Rate12}); err == nil {
		t.Fatal("encoder accepted config without a channel")
	}
}

func TestOverheadMatchesPaperRange(t *testing.T) {
	// The paper's loss spans 6.94%..14.58% across its Table IV settings.
	for _, tc := range []struct {
		mod  Modulation
		rate CodeRate
		ch   Channel
		want float64
	}{
		{QAM16, Rate12, CH1, 14.58},
		{QAM16, Rate34, CH4, 6.94},
		{QAM256, Rate56, CH2, 13.12},
	} {
		enc, err := NewEncoder(Config{Modulation: tc.mod, CodeRate: tc.rate, Channel: tc.ch})
		if err != nil {
			t.Fatal(err)
		}
		if got := 100 * enc.OverheadFraction(); math.Abs(got-tc.want) > 0.01 {
			t.Errorf("%v r=%v %v: overhead %.2f%%, want %.2f%%", tc.mod, tc.rate, tc.ch, got, tc.want)
		}
	}
}

func TestPowerReductionConstants(t *testing.T) {
	if v := PowerReductionDB(QAM64); math.Abs(v-13.2) > 0.05 {
		t.Fatalf("QAM-64 reduction %.2f dB, want 13.2", v)
	}
}

func TestMeasureBandReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 400)
	rng.Read(payload)
	drop, err := MeasureBandReduction(Config{Modulation: QAM256, CodeRate: Rate34, Channel: CH4}, payload)
	if err != nil {
		t.Fatal(err)
	}
	// CH4 has no pilot, so the measured drop should approach the
	// theoretical 19.3 dB minus spectral leakage.
	if drop < 12 || drop > 21 {
		t.Fatalf("QAM-256 CH4 band reduction %.1f dB, want roughly 13-19", drop)
	}
}

func TestChannelFromNumbers(t *testing.T) {
	ch, err := ChannelFromNumbers(26, 13)
	if err != nil {
		t.Fatal(err)
	}
	if ch != CH4 {
		t.Fatalf("ZigBee 26 on WiFi 13 = %v, want CH4", ch)
	}
}

func TestSimulateCoexistenceSledZigBeatsNormal(t *testing.T) {
	base := CoexistenceConfig{
		Modulation: QAM256,
		CodeRate:   Rate34,
		Channel:    CH3,
		DWZ:        4, DZ: 1, DW: 1,
		DutyRatio: 1, Duration: 8, Seed: 42,
		EnergyCCA: true,
	}
	normal := base
	normal.UseSledZig = false
	sled := base
	sled.UseSledZig = true

	rn, err := SimulateCoexistence(normal)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SimulateCoexistence(sled)
	if err != nil {
		t.Fatal(err)
	}
	if rs.ZigBeeThroughputBps < 4*rn.ZigBeeThroughputBps+1 {
		t.Fatalf("SledZig %.1f kbit/s vs normal %.1f kbit/s: expected a large win",
			rs.ZigBeeThroughputBps/1e3, rn.ZigBeeThroughputBps/1e3)
	}
	if rs.WiFiGoodputFraction >= 1 || rs.WiFiGoodputFraction < 0.85 {
		t.Fatalf("SledZig WiFi goodput fraction %.3f outside the paper's loss range", rs.WiFiGoodputFraction)
	}
	if rn.InBandRSSIDBm-rs.InBandRSSIDBm < 5 {
		t.Fatalf("in-band RSSI drop %.1f dB too small", rn.InBandRSSIDBm-rs.InBandRSSIDBm)
	}
}

func TestTransmitBitsAreBinary(t *testing.T) {
	enc, err := NewEncoder(Config{Modulation: QAM16, CodeRate: Rate12, Channel: CH2})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		payload := make([]byte, 1+lr.Intn(64))
		lr.Read(payload)
		frame, err := enc.Encode(payload)
		if err != nil {
			return false
		}
		for _, b := range frame.TransmitBits() {
			if b > 1 {
				return false
			}
		}
		return frame.ExtraBits() == frame.NumSymbols()*enc.ExtraBitsPerSymbol()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	message := make([]byte, 3000)
	rng.Read(message)
	enc, err := NewEncoder(Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH3})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := enc.EncodeMessage(message, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 {
		t.Fatalf("expected multiple fragments, got %d", len(frames))
	}
	rx, err := NewMessageReceiver(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, f := range frames {
		wave, err := f.Waveform()
		if err != nil {
			t.Fatal(err)
		}
		out, err := rx.Feed(wave)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			got = out
		}
	}
	if !bytes.Equal(got, message) {
		t.Fatal("message mismatch through fragmentation")
	}
	if rx.Pending() != 0 {
		t.Fatalf("%d messages pending", rx.Pending())
	}
}

func TestFacadeAccessors(t *testing.T) {
	enc, err := NewEncoder(Config{Modulation: QAM16, CodeRate: Rate12, Channel: CH1})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := enc.Encode([]byte("accessors"))
	if err != nil {
		t.Fatal(err)
	}
	if d := frame.AirtimeSeconds(); d <= 0 || d > 1e-3 {
		t.Fatalf("airtime %g s", d)
	}
	if mp := enc.MaxPayload(10); mp <= 0 {
		t.Fatalf("MaxPayload(10) = %d", mp)
	}
	// A payload of exactly MaxPayload(3) fits in 3 symbols.
	n := enc.MaxPayload(3)
	f3, err := enc.Encode(make([]byte, n))
	if err != nil {
		t.Fatal(err)
	}
	if f3.NumSymbols() != 3 {
		t.Fatalf("MaxPayload(3) filled %d symbols", f3.NumSymbols())
	}
}

func TestDecodeNormalFrame(t *testing.T) {
	// Decode with AsStandardFrame reads a plain (non-SledZig) WiFi frame's PSDU.
	enc, err := NewEncoder(Config{Modulation: QAM16, CodeRate: Rate12, Channel: CH2})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := enc.Encode([]byte("payload under the hood"))
	if err != nil {
		t.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dec.Decode(wave, AsStandardFrame())
	if err != nil {
		t.Fatal(err)
	}
	psdu := res.Payload
	// The raw PSDU is the SledZig transmit stream, longer than the
	// embedded payload.
	if len(psdu) < len("payload under the hood") {
		t.Fatalf("PSDU of %d octets too short", len(psdu))
	}
}

func mathCos(x float64) float64 { return math.Cos(x) }
func mathSin(x float64) float64 { return math.Sin(x) }

func TestSenseProtectedChannelFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	capture := make([]complex128, 1<<15)
	for i := range capture {
		capture[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-5
	}
	// Synthesize ZigBee-ish narrowband energy at CH4's offset (+8 MHz).
	for i := range capture {
		phase := 2 * 3.141592653589793 * 8e6 * float64(i) / 20e6
		capture[i] += complex(0.01*mathCos(phase), 0.01*mathSin(phase))
	}
	ch, ok, err := SenseProtectedChannel(capture)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || ch != CH4 {
		t.Fatalf("sensed (%v, %v), want (CH4, true)", ch, ok)
	}
}

// TestEncoderConcurrentUse: one Encoder may serve goroutines concurrently
// (the plan is read-only; per-call state is local).
func TestEncoderConcurrentUse(t *testing.T) {
	enc, err := NewEncoder(Config{Modulation: QAM64, CodeRate: Rate23, Channel: CH1})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			payload := []byte{byte(w), 1, 2, 3, 4, 5, 6, 7}
			for i := 0; i < 10; i++ {
				frame, err := enc.Encode(payload)
				if err != nil {
					errs <- err
					return
				}
				wave, err := frame.Waveform()
				if err != nil {
					errs <- err
					return
				}
				res, err := dec.Decode(wave)
				if err != nil {
					errs <- err
					return
				}
				if got := res.Payload; got[0] != byte(w) {
					errs <- fmt.Errorf("worker %d got %d", w, got[0])
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
