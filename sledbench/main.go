// Command sledbench is the repository benchmark. It drives the sledzig
// program from one process through its entry points on three closed-loop
// workloads and prints one JSON result line:
//
//	repro  the paper's coexistence sweep (exp.DeriveProfile + mac.Run)
//	rx     capture decode through the facade Decoder
//	tx     traffic generation through Engine.Stream + Frame.AppendWaveform
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, timed by spans recorded around each
// layer call from this package's own code. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupProbes is how many child processes repeat the workload's cold
// set-up before the measuring process does its own; setup_s is the median
// of all of them.
const setupProbes = 8

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	role     string // "" for the measuring process, "gen" or "probe" for children
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sledbench:", err)
		os.Exit(1)
	}
}

func parseOptions(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("sledbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: repro, rx or tx")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&o.role, "role", "", "internal: gen or probe child process")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want repro, rx or tx)", o.workload)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// workload is one benchmark workload. gen builds the inputs from the seed
// in a child process, so that generating them never warms the measuring
// process's caches; setup is everything timed as setup_s; measure runs the
// closed loop and fills the report.
type workload interface {
	gen() (any, error)
	setup(inputs any) error
	measure(seconds float64, traced bool, rep *report) error
	close()
}

var workloads = map[string]func(seed int64) workload{
	"repro": newRepro,
	"rx":    newRx,
	"tx":    newTx,
}

func run(args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	w := workloads[o.workload](o.seed)
	switch o.role {
	case "gen":
		inputs, err := w.gen()
		if err != nil {
			return err
		}
		return encodeInputs(os.Stdout, inputs)
	case "probe":
		inputs, err := decodeInputs(o.workload, os.Stdin)
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = w.setup(inputs)
		d := time.Since(t0).Seconds()
		w.close()
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(d)
	case "":
	default:
		return fmt.Errorf("unknown role %q", o.role)
	}
	return measureRun(o, w)
}

// measureRun is the measuring process: generate inputs in a child, take
// the set-up probes, set up, measure, check and print.
func measureRun(o options, w workload) error {
	env := collectEnv(o)
	raw, err := runChild(o, "gen", nil)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	setups := make([]float64, 0, setupProbes+1)
	for i := 0; i < setupProbes; i++ {
		out, err := runChild(o, "probe", raw)
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		var d float64
		if err := json.Unmarshal(out, &d); err != nil {
			return fmt.Errorf("set-up probe output: %w", err)
		}
		setups = append(setups, d)
	}
	inputs, err := decodeInputs(o.workload, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	raw = nil

	t0 := time.Now()
	err = w.setup(inputs)
	setups = append(setups, time.Since(t0).Seconds())
	if err != nil {
		w.close()
		return fmt.Errorf("set-up: %w", err)
	}
	// Return the input transport's garbage to the OS, so the peak RSS is
	// the inputs and the program's working set while it measures.
	debug.FreeOSMemory()
	rep := newReport()
	rss := startRSSSampler()
	err = w.measure(o.seconds, o.trace, rep)
	rep.set("peak_rss_mb", rss.finish())
	w.close()
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setups))

	fmt.Printf("env %s\n", env.json())
	fmt.Printf("setup samples (s): %v\n", setups)
	if o.trace {
		path, err := writeSpans(o, env, rep.spans)
		if err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
	}
	for _, msg := range rep.problems {
		fmt.Println("CHECK FAILED:", msg)
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	return rep.print(os.Stdout, names)
}

// runChild runs this binary in the given role with stdin fed from in and
// returns its standard output. It waits for the child to exit.
func runChild(o options, role string, in []byte) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--role", role, "--workload", o.workload,
		"--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds))
	if in != nil {
		cmd.Stdin = bytes.NewReader(in)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w: %s", role, err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}

// env is what every run records about where it ran.
type env struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
}

func collectEnv(o options) env {
	return env{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		SourceHash: sourceHash("."),
	}
}

func (e env) json() string {
	b, _ := json.Marshal(e) // plain struct: cannot fail
	return string(b)
}

// writeSpans writes the traced run's spans as JSON under .bench_build/.
func writeSpans(o options, e env, spans []span) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	werr := json.NewEncoder(f).Encode(struct {
		Env   env    `json:"env"`
		Spans []span `json:"spans"`
	}{e, spans})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return path, werr
}

// report collects a run's metrics, counts and check failures.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
	spans     []span
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a named metric with its listed unit.
func (r *report) set(name string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: units[name]}
}

// fail records a correctness problem; any problem makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var errIncorrect = errors.New("a correctness check failed")

// print writes a human-readable table of every metric followed by the
// JSON result line holding the listed ones. Per-layer metrics a workload
// never touches read 0. An incorrect run still prints its result line,
// with "correct": false, and returns errIncorrect.
func (r *report) print(w io.Writer, names []string) error {
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	fmt.Fprintf(w, "%-44s %16d\n%-44s %16d\n", "attempted", r.attempted, "failed", r.failed)
	correct := len(r.problems) == 0 && r.attempted > 0
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, map[string]metric{}}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			m = metric{0, units[n]}
		}
		out.Metrics[n] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
		return err
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

func frac(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
