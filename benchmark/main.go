// Command benchmark is the repository's benchmark: it runs the protocol
// end to end on four workloads, checks every output against the
// plaintext evaluator, and reports the end-to-end and per-layer metrics
// BENCHMARK.json defines. See README.md beside this file.
//
// The load is a closed loop with one client, the protocol driver:
// iterations run back to back, each in full, with one worker per CPU.
//
//	bash benchmark/run.sh                               every workload, as a table
//	bash benchmark/run.sh -out result.json              ... and as a stamped result file
//	bash benchmark/run.sh -workload W -seed N -seconds S -trace 0|1
//	bash benchmark/run.sh -compare old.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"yosompc/internal/parallel"
)

// processStart is as early as the program can read the clock; set-up
// time counts from here.
var processStart = time.Now()

// setupRuns is how many fresh processes set the workload up in one
// untraced run; setup_s is their median.
const setupRuns = 3

func main() {
	workloadName := flag.String("workload", "", "run one workload and end with one JSON line; empty runs them all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 0, "how long a run measures; 0 means run_seconds of the benchmark definition")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	out := flag.String("out", "", "with every workload: also write the stamped result file here")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark definition")
	child := flag.String("child", "", "internal: the part of a run this process performs (setup, measure, trace)")
	flag.Parse()

	if err := loadSpec(*specPath); err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	run := runner{seed: *seed, seconds: *seconds, specPath: *specPath}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		code, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	case *child != "":
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatal(err)
		}
		res, err := runChild(*child, w, *seed, time.Duration(*seconds)*time.Second)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
	case *workloadName != "":
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatal(err)
		}
		res, err := run.workload(w, *trace != 0)
		if err != nil {
			fatal(err)
		}
		printTable(os.Stdout, res)
		if err := json.NewEncoder(os.Stdout).Encode(res.driverLine()); err != nil {
			fatal(err)
		}
	default:
		file, err := run.all(os.Stdout)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeResultFile(*out, file); err != nil {
				fatal(err)
			}
		}
		for _, w := range file.Workloads {
			if !w.Correct {
				os.Exit(1)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// childResult is what a child process hands back on its standard output.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics,omitempty"`
}

func (r *childResult) count(it iteration) {
	r.Attempted++
	if it.failure != "" {
		r.Failed++
		r.Failures = append(r.Failures, it.failure)
	}
}

// runChild is one fresh process's share of a run. Every kind sets the
// workload up — backends, circuit, inputs, one untimed warm-up iteration
// that fills the process-wide caches — and reports how long that took
// from process start. "setup" stops there; "measure" then iterates
// untraced for the run's length; "trace" alternates untraced and traced
// iterations for half of it and spends the rest on the probes.
func runChild(kind string, w workload, seed int64, length time.Duration) (*childResult, error) {
	b, err := newBench(w, seed)
	if err != nil {
		return nil, err
	}
	res := &childResult{}
	if warm := b.iterate(false); warm.failure != "" {
		return nil, fmt.Errorf("workload %s: warm-up iteration: %s", w.Name, warm.failure)
	}
	res.SetupS = time.Since(processStart).Seconds()

	switch kind {
	case "setup":
	case "measure":
		var its []iteration
		for start := time.Now(); len(its) < 3 || time.Since(start) < length; {
			it := b.iterate(false)
			res.count(it)
			its = append(its, it)
		}
		res.Metrics = b.endToEnd(its)
		res.Metrics["peak_rss_mb"] = single(units["peak_rss_mb"], peakRSSMiB())
	case "trace":
		var untraced, traced []iteration
		for start := time.Now(); len(traced) < 2 || time.Since(start) < length/2; {
			plain, withTrace := b.iterate(false), b.iterate(true)
			res.count(plain)
			res.count(withTrace)
			untraced, traced = append(untraced, plain), append(traced, withTrace)
		}
		if res.Metrics, err = perLayerFromRuns(untraced, traced, parallel.Normalize(0)); err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		probes, err := b.runProbes()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		for name, s := range probes {
			res.Metrics[name] = s
		}
	default:
		return nil, fmt.Errorf("unknown child kind %q", kind)
	}
	return res, nil
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	workload
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Correct means every attempted iteration produced the outputs of
	// circuit.Eval and every metric of the definition was measured.
	Correct  bool               `json:"correct"`
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	PerLayer map[string]summary `json:"per_layer,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Environment environment      `json:"environment"`
	Workloads   []workloadResult `json:"workloads"`
}

func writeResultFile(path string, file *resultFile) error {
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runner starts the child processes of a run. A fresh process per part is
// what makes peak memory and cold set-up time belong to one workload, and
// keeps one workload's caches out of the next.
type runner struct {
	seed     int64
	seconds  int
	specPath string
}

func (r runner) child(kind string, w workload) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", kind, "-workload", w.Name, "-spec", r.specPath,
		"-seed", strconv.FormatInt(r.seed, 10), "-seconds", strconv.Itoa(r.seconds))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// A child never outlives a parent that was killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s, %s process: %w", w.Name, kind, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("workload %s, %s process: reading its result: %w", w.Name, kind, err)
	}
	return &res, nil
}

// workload performs one run of one workload: untraced for the end-to-end
// metrics, or traced for the per-layer ones.
func (r runner) workload(w workload, traced bool) (*workloadResult, error) {
	res := &workloadResult{workload: w, Seed: r.seed, Seconds: r.seconds}
	var got *childResult
	var defs []metricDef
	var err error
	if traced {
		if got, err = r.child("trace", w); err != nil {
			return nil, err
		}
		res.PerLayer, defs = got.Metrics, spec.PerLayer
	} else {
		setups := make([]float64, 0, setupRuns)
		for len(setups) < setupRuns-1 {
			s, err := r.child("setup", w)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.SetupS)
		}
		if got, err = r.child("measure", w); err != nil {
			return nil, err
		}
		got.Metrics["setup_s"] = summarize(units["setup_s"], append(setups, got.SetupS))
		res.EndToEnd, defs = got.Metrics, spec.EndToEnd
	}
	res.Attempted, res.Failed, res.Failures = got.Attempted, got.Failed, got.Failures
	res.Correct = res.Failed == 0
	if err := checkNames(defs, got.Metrics); err != nil {
		res.Correct = false
		res.Failures = append(res.Failures, err.Error())
	}
	return res, nil
}

// all runs every workload both ways and prints each as it finishes.
func (r runner) all(w io.Writer) (*resultFile, error) {
	file := &resultFile{Environment: stampEnvironment()}
	for _, wl := range workloads {
		res, err := r.workload(wl, false)
		if err != nil {
			return nil, err
		}
		traced, err := r.workload(wl, true)
		if err != nil {
			return nil, err
		}
		res.PerLayer = traced.PerLayer
		res.Correct = res.Correct && traced.Correct
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		res.Failures = append(res.Failures, traced.Failures...)
		printTable(w, res)
		file.Workloads = append(file.Workloads, *res)
	}
	return file, nil
}

// printTable prints every metric the result holds by name, with its unit
// and the samples behind it, in the definition's order.
func printTable(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "workload %s: %s, %d-bit modulus, n=%d t=%d k=%d, WideMul(%d,%d), seed %d: %d iterations attempted, %d failed\n",
		res.Name, res.Backend, res.ModulusBits, res.N, res.T, res.K, res.Width, res.Depth, res.Seed, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	row := func(defs []metricDef, got map[string]summary) {
		for _, d := range defs {
			if s, ok := got[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.6g %-6s median of n=%-4d min %.6g max %.6g\n", d.Name, s.Value, s.Unit, s.N, s.Min, s.Max)
			}
		}
	}
	row(spec.EndToEnd, res.EndToEnd)
	row(spec.PerLayer, res.PerLayer)
}

// driverLine is the one JSON object a single-workload run ends with.
func (res *workloadResult) driverLine() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, set := range []map[string]summary{res.EndToEnd, res.PerLayer} {
		for name, s := range set {
			metrics[name] = value{s.Value, s.Unit}
		}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics}
}
