package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sledzig"
	"sledzig/internal/channel"
	"sledzig/internal/core"
	"sledzig/internal/wifi"
)

// rxModes are the WiFi modes the rx captures use, with the SNR each is
// received at: the hard-decision minimum SNR EXPERIMENTS.md measures for
// the mode plus a margin, so every capture decodes.
var rxModes = []struct {
	mod    sledzig.Modulation
	rate   sledzig.CodeRate
	minSNR float64
}{
	{sledzig.QAM16, sledzig.Rate12, 15},
	{sledzig.QAM16, sledzig.Rate34, 17},
	{sledzig.QAM64, sledzig.Rate23, 22},
	{sledzig.QAM64, sledzig.Rate34, 22},
	{sledzig.QAM64, sledzig.Rate56, 23},
	{sledzig.QAM256, sledzig.Rate34, 29},
	{sledzig.QAM256, sledzig.Rate56, 29},
}

const (
	// rxMaxRate bounds one client's decodes per second, for sizing its
	// latency samples.
	rxMaxRate     = 4000
	rxSNRMarginDB = 10
	// rxPerClass captures per (mode, channel) pair, one per payload-size
	// stratum of [rxMinPayload, rxMaxPayload], so every seed decodes the
	// same size mix.
	rxPerClass   = 8
	rxMinPayload = 50
	rxMaxPayload = 1500
	// noiseDBm is the AWGN power across the 20 MHz capture bandwidth at
	// the default -91 dBm/2 MHz noise floor.
	noiseDBm = -81
)

type rxInputs struct {
	Captures []capture
}

// capture is one received frame and what its decode must return.
type capture struct {
	Wave    []complex128
	Payload []byte
	Channel int
	Airtime float64 // seconds on the air
}

type rxWorkload struct {
	seed    int64
	clients int
	in      *rxInputs
	decs    []*sledzig.Decoder
}

func newRx(seed int64) workload {
	return &rxWorkload{seed: seed, clients: runtime.GOMAXPROCS(0)}
}

// gen encodes payloads of every mode on every channel, renders them, and
// passes them through AWGN and, for a quarter of them, a two-ray channel.
func (w *rxWorkload) gen() (any, error) {
	rng := rand.New(rand.NewSource(w.seed))
	in := &rxInputs{}
	stratum := (rxMaxPayload - rxMinPayload) / rxPerClass
	for _, md := range rxModes {
		for ch := sledzig.CH1; ch <= sledzig.CH4; ch++ {
			enc, err := sledzig.NewEncoder(sledzig.Config{Modulation: md.mod, CodeRate: md.rate, Channel: ch})
			if err != nil {
				return nil, err
			}
			for k := 0; k < rxPerClass; k++ {
				payload := make([]byte, rxMinPayload+k*stratum+rng.Intn(stratum+1))
				rng.Read(payload)
				f, err := enc.Encode(payload)
				if err != nil {
					return nil, err
				}
				wave, err := f.Waveform()
				if err != nil {
					return nil, err
				}
				if k%4 == 3 {
					wave, err = channel.TwoRay(10, 1+rng.Intn(6)).Apply(wave)
					if err != nil {
						return nil, err
					}
				}
				link := channel.Link{RxPowerDBm: noiseDBm + md.minSNR + rxSNRMarginDB, Rng: rng}
				wave, _ = link.Apply(wave)
				if err := link.AddNoise(wave); err != nil {
					return nil, err
				}
				in.Captures = append(in.Captures, capture{
					Wave:    wave,
					Payload: payload,
					Channel: int(ch),
					Airtime: f.AirtimeSeconds(),
				})
			}
		}
	}
	return in, nil
}

// setup installs the metrics registry, builds one Decoder per client and
// decodes every capture once, which fills the per-frame-length layout
// caches the decoder keeps for each (mode, channel) plan.
func (w *rxWorkload) setup(inputs any) error {
	w.in = inputs.(*rxInputs)
	sledzig.SetDefaultMetrics(sledzig.NewMetrics())
	w.decs = make([]*sledzig.Decoder, w.clients)
	for i := range w.decs {
		d, err := sledzig.NewDecoder(sledzig.Config{})
		if err != nil {
			return err
		}
		w.decs[i] = d
	}
	for i := range w.in.Captures {
		c := &w.in.Captures[i]
		res, err := w.decs[0].Decode(c.Wave)
		if err != nil {
			return fmt.Errorf("warm-up decode: %w", err)
		}
		if err := checkDecoded(c, res.Payload, res.Channel); err != nil {
			return fmt.Errorf("warm-up decode: %w", err)
		}
	}
	return nil
}

func (w *rxWorkload) close() {}

// checkDecoded is the rx correctness check.
func checkDecoded(c *capture, payload []byte, ch sledzig.Channel) error {
	if int(ch) != c.Channel {
		return fmt.Errorf("detected channel %v, sent CH%d", ch, c.Channel)
	}
	if !bytes.Equal(payload, c.Payload) {
		return fmt.Errorf("decoded %d-byte payload differs from the %d bytes sent", len(payload), len(c.Payload))
	}
	return nil
}

// loop decodes captures one at a time through Decoder.Decode, in a
// per-client order, until the deadline. With a recorder it decodes each
// capture a second time right after, calling the layers the facade
// composes (Receive → DecodeAuto → SymbolEVM) inside spans, so the facade
// and its layers are timed on the same input at the same moment.
func (w *rxWorkload) loop(c int, start, deadline time.Time, out *tally) {
	dec := w.decs[c]
	caps := w.in.Captures
	order := rand.New(rand.NewSource(w.seed*7919 + int64(c))).Perm(len(caps))
	window := deadline.Sub(start).Seconds()
	for i, t := 0, start; t.Before(deadline); i++ {
		cp := &caps[order[i%len(caps)]]
		res, err := dec.Decode(cp.Wave)
		t1 := time.Now()
		if err == nil {
			check(out, cp, res.Payload, res.Channel)
		}
		out.add(false, t1.Sub(start).Seconds(), t1.Sub(t).Seconds(), window, cp.Airtime, err == nil)
		if out.rec != nil {
			payload, ch, err := w.decodeLayers(out, int64(c)<<40|int64(i), cp)
			t2 := time.Now()
			if err == nil {
				check(out, cp, payload, ch)
			}
			out.add(true, 0, t2.Sub(t1).Seconds(), window, cp.Airtime, err == nil)
			t1 = t2
		}
		t = t1
	}
}

// decodeLayers is the facade's decode composed from its layer calls, each
// inside a span.
func (w *rxWorkload) decodeLayers(out *tally, req int64, cp *capture) ([]byte, sledzig.Channel, error) {
	rec := out.rec
	root := rec.begin("rx.frame", req, -1)
	defer rec.end(root)
	h := rec.begin("wifi.rx", req, root)
	rx, err := wifi.Receiver{}.Receive(cp.Wave)
	rec.end(h)
	if err != nil {
		return nil, 0, err
	}
	h = rec.begin("core.decode", req, root)
	payload, ch, err := core.Decoder{}.DecodeAuto(rx)
	rec.end(h)
	if err != nil {
		return nil, 0, err
	}
	h = rec.begin("wifi.evm", req, root)
	evm := wifi.SymbolEVM(rx.Mode.Modulation, rx.DataPoints)
	rec.end(h)
	out.symbols += int64(len(rx.DataPoints))
	if len(evm) != len(rx.DataPoints) {
		return nil, 0, fmt.Errorf("%d EVM values for %d symbols", len(evm), len(rx.DataPoints))
	}
	return payload, ch, nil
}

// check applies the rx correctness check to a decode that returned
// without error. A wrong payload is still a completed request: it makes
// the run incorrect, not failed.
func check(out *tally, cp *capture, payload []byte, ch sledzig.Channel) {
	if err := checkDecoded(cp, payload, ch); err != nil {
		out.problem("rx: " + err.Error())
	}
}

func (w *rxWorkload) phase(seconds float64, traced bool, epoch time.Time) *closedLoop {
	return runClients(w.clients, seconds, rxMaxRate, traced, epoch, w.loop)
}

// measure runs the closed loop. A traced run first runs an untraced
// phase, which gives the facade's allocations and GC share, then the
// paired phase, which gives the layer times.
func (w *rxWorkload) measure(seconds float64, traced bool, rep *report) error {
	epoch := time.Now()
	if !traced {
		p := w.phase(seconds, false, epoch)
		p.report(rep)
		blockMetrics(rep, p)
		return nil
	}
	u := w.phase(seconds*untracedShare, false, epoch)
	t := w.phase(seconds*(1-untracedShare), true, epoch)
	u.report(rep)
	t.report(rep)
	spans, stats := aggregate(t.recorders())
	rep.spans = spans
	n := float64(t.traced())
	perFrame := func(name string) float64 { return get(stats, name).self / n * 1e6 }
	layers := perFrame("wifi.rx") + perFrame("core.decode") + perFrame("wifi.evm")
	facade := t.meanLat(false) * 1e6
	rep.set("wifi.rx.us_per_frame", perFrame("wifi.rx"))
	rep.set("wifi.rx.us_per_symbol", get(stats, "wifi.rx").self/float64(t.symbols)*1e6)
	rep.set("core.decode.us_per_frame", perFrame("core.decode"))
	rep.set("wifi.evm.us_per_frame", perFrame("wifi.evm"))
	rep.set("facade.decode.unattributed_us_per_frame", facade-layers)
	rep.set("facade.decode.allocs_per_frame", u.delta.mallocs/float64(u.ok+u.failed))
	rep.set("facade.decode.bytes_per_frame", u.delta.bytes/float64(u.ok+u.failed))
	rep.set("go.gc_cpu_frac", u.delta.gcFrac)
	rep.set("rx.symbols", float64(t.symbols))
	rep.set("rx.decode_failures", float64(u.failed+t.failed))
	rep.set("trace_overhead_frac", t.meanLat(true)*1e6/facade-1)
	rep.set("failed_frac", frac(rep.failed, rep.attempted))
	return nil
}

// untracedShare is the part of a traced run's seconds spent in its
// untraced reference phase.
const untracedShare = 0.25
