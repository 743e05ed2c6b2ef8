package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"sledzig"
)

// Each correctness check must pass on a real output and trip on a
// deliberately corrupted copy of it.

func TestRxCheckTrips(t *testing.T) {
	w := newRx(3).(*rxWorkload)
	in, err := w.gen()
	if err != nil {
		t.Fatal(err)
	}
	cp := &in.(*rxInputs).Captures[0]
	dec, err := sledzig.NewDecoder(sledzig.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dec.Decode(cp.Wave)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDecoded(cp, res.Payload, res.Channel); err != nil {
		t.Fatalf("check fails on a correct decode: %v", err)
	}
	bad := append([]byte(nil), res.Payload...)
	bad[len(bad)/2] ^= 0x10
	if checkDecoded(cp, bad, res.Channel) == nil {
		t.Error("check passes a corrupted payload")
	}
	if checkDecoded(cp, res.Payload[:len(res.Payload)-1], res.Channel) == nil {
		t.Error("check passes a truncated payload")
	}
	if checkDecoded(cp, res.Payload, res.Channel%4+1) == nil {
		t.Error("check passes a wrong channel")
	}
}

func TestTxCheckTrips(t *testing.T) {
	w := newTx(3).(*txWorkload)
	in, err := w.gen()
	if err != nil {
		t.Fatal(err)
	}
	tx := in.(*txInputs)
	enc, err := sledzig.NewEncoder(txConfig)
	if err != nil {
		t.Fatal(err)
	}
	f, err := enc.Encode(tx.Payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	got := f.TransmitBits()
	if err := checkBits(got, tx.Bits[0], tx.NBits[0]); err != nil {
		t.Fatalf("check fails on a correct frame: %v", err)
	}
	got[len(got)/3] ^= 1
	if checkBits(got, tx.Bits[0], tx.NBits[0]) == nil {
		t.Error("check passes a flipped transmit bit")
	}
	if checkBits(got[:len(got)-8], tx.Bits[0], tx.NBits[0]) == nil {
		t.Error("check passes a short frame")
	}
}

func TestReproCheckTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one pass of the sweep")
	}
	w := newRepro(3).(*reproWorkload)
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	ph := w.run(0, false, time.Now())
	if ph.failed > 0 {
		t.Fatalf("sweep failed: %v", ph.problems)
	}
	good := ph.means()
	if bad := checkRepro(w.stages, good); len(bad) > 0 {
		t.Fatalf("checks fail on a real sweep: %v", bad)
	}
	set := func(means [][]float64, stage, variant string, x float64, tag string, v float64) {
		for si, st := range w.stages {
			for i, pt := range st.points {
				if st.name == stage && st.variants[pt.variant].Name == variant && pt.x == x && pt.tag == tag {
					means[si][i] = v
				}
			}
		}
	}
	corruptions := map[string]func(m [][]float64){
		"fig14 normal recovers at 1 m": func(m [][]float64) { set(m, "fig14a", "Normal", 1, "", 63) },
		"fig14b QAM-256 silenced":      func(m [][]float64) { set(m, "fig14b", "QAM-256", 1, "", 0) },
		"fig15 normal never collapses": func(m [][]float64) { set(m, "fig15", "Normal", 2, "", 60) },
		"fig16 QAM-64 dies at 90%": func(m [][]float64) {
			set(m, "fig16", "QAM-64", 0.9, "0", 0)
			set(m, "fig16", "QAM-64", 0.9, "1", 0)
		},
		"fleet does not scale":  func(m [][]float64) { set(m, "fleet", "SledZig", 4, "saturated", 60) },
		"stock AP lets through": func(m [][]float64) { set(m, "fleet", "Stock", 1, "saturated", 60) },
	}
	for name, corrupt := range corruptions {
		m := make([][]float64, len(good))
		for i := range good {
			m[i] = append([]float64(nil), good[i]...)
		}
		corrupt(m)
		if len(checkRepro(w.stages, m)) == 0 {
			t.Errorf("%s: checks pass", name)
		}
	}
}

// The metric names the program reports are the ones BENCHMARK.json lists.
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	for _, list := range []struct {
		spec []struct{ Name, Unit string }
		have []string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got []string
		for _, m := range list.spec {
			got = append(got, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, units[m.Name])
			}
		}
		if !reflect.DeepEqual(got, list.have) {
			t.Errorf("BENCHMARK.json lists %v, the program %v", got, list.have)
		}
	}
}
