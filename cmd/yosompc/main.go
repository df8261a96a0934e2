// Command yosompc runs the packed YOSO MPC protocol (or the CDN baseline)
// end to end on a chosen workload and prints the outputs and the
// communication report. It checks the outputs against the plaintext
// evaluation of the circuit and exits with status 1 when they differ.
//
// Usage:
//
//	yosompc -circuit inner-product -size 4 -n 8 -t 2 -k 2
//	yosompc -circuit wide -size 16 -depth 2 -n 16 -t 3 -k 4 -backend real
//	yosompc -circuit stats -size 5 -baseline -n 8 -t 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"

	"yosompc"
)

func main() {
	var (
		circuitName = flag.String("circuit", "inner-product", "workload: inner-product | poly-eval | matvec | stats | wide | random")
		circuitFile = flag.String("file", "", "load the circuit from a text-format file instead of -circuit")
		size        = flag.Int("size", 4, "workload size (vector length / degree / matrix dim / clients / width)")
		depth       = flag.Int("depth", 1, "multiplicative depth for the wide workload")
		n           = flag.Int("n", 8, "committee size")
		t           = flag.Int("t", 2, "corruption bound per committee")
		k           = flag.Int("k", 2, "packing factor (ignored with -baseline)")
		backendName = flag.String("backend", "sim", "crypto backend: sim | real")
		useBaseline = flag.Bool("baseline", false, "run the CDN-style baseline instead (with -monitor and -mirror; refuses -trace, -metrics-out, -proc, -robust and -workers)")
		malicious   = flag.Int("malicious", 0, "actively corrupted roles per committee")
		failstops   = flag.Int("failstops", 0, "crashed roles per committee")
		seed        = flag.Int64("seed", 1, "adversary seed")
		optimize    = flag.Bool("optimize", false, "run the circuit optimizer before executing")
		robust      = flag.Bool("robust", false, "IT-GOD mode: decode cheating μ-shares instead of proof-filtering (needs 3t+2(k-1)+1 ≤ n)")
		workers     = flag.Int("workers", 0, "worker-pool size for the parallel execution engine (0 = one per CPU, 1 = serial)")
		mirror      = flag.String("mirror", "", "live-mirror board postings to a boardd server at this address")
		monitorOn   = flag.Bool("monitor", false, "derive protocol progress from the board and print the summary after the run")
		proc        = flag.String("proc", "", "process name stamped on board postings and trace exports (cross-process correlation)")
		jsonOut     = flag.Bool("json", false, "emit the communication report as JSON")
		traceOut    = flag.String("trace", "", "record protocol spans and write them here (Chrome trace_event JSON; .jsonl for span lines)")
		metricsOut  = flag.String("metrics-out", "", "collect engine metrics and write the JSON snapshot here")
	)
	flag.Parse()

	var (
		circ   *yosompc.Circuit
		inputs map[int][]yosompc.Value
		err    error
	)
	if *circuitFile != "" {
		circ, inputs, err = loadWorkload(*circuitFile)
	} else {
		circ, inputs, err = buildWorkload(*circuitName, *size, *depth)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "yosompc: %v\n", err)
		os.Exit(1)
	}
	if *optimize {
		before := circ.NumMul()
		circ, err = yosompc.OptimizeCircuit(circ)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yosompc: optimize: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("optimizer: %d → %d multiplications\n", before, circ.NumMul())
	}
	cfg := yosompc.Config{
		N: *n, T: *t, K: *k,
		Malicious: *malicious, FailStops: *failstops, Seed: *seed,
		Robust: *robust, MirrorAddr: *mirror, Workers: *workers,
		Proc: *proc,
	}
	if *backendName == "real" {
		cfg.Backend = yosompc.Real
	}
	if *monitorOn {
		cfg.Monitor = yosompc.NewMonitor()
	}
	if *traceOut != "" {
		cfg.Trace = yosompc.NewTracer()
	}
	if *metricsOut != "" {
		cfg.Metrics = yosompc.NewMetricsRegistry()
	}

	var res *yosompc.Result
	if *useBaseline {
		res, err = yosompc.RunBaseline(cfg, circ, inputs)
	} else {
		res, err = yosompc.Run(cfg, circ, inputs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "yosompc: %v\n", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := yosompc.WriteTraceFile(*traceOut, cfg.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "yosompc: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans written to %s\n", len(cfg.Trace.Spans()), *traceOut)
	}
	if *metricsOut != "" {
		if err := yosompc.WriteMetricsFile(*metricsOut, cfg.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "yosompc: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: snapshot written to %s\n", *metricsOut)
	}

	label := *circuitName
	if *circuitFile != "" {
		label = *circuitFile
	}
	fmt.Printf("circuit: %s (muls=%d depth=%d)\n", label, circ.NumMul(), circ.Depth())
	for _, client := range circ.Clients() {
		if vals := res.Outputs[client]; len(vals) > 0 {
			fmt.Printf("client %d outputs: %v\n", client, vals)
		}
	}
	wrong := checkOutputs(circ, inputs, res.Outputs)
	if wrong != nil {
		fmt.Fprintf(os.Stderr, "yosompc: %v\n", wrong)
	}
	if len(res.Excluded) > 0 {
		fmt.Printf("excluded roles: %v\n", res.Excluded)
	}
	if *monitorOn {
		fmt.Printf("\nboard-derived progress:\n")
		cfg.Monitor.Snapshot().WriteText(os.Stdout)
	}
	if *jsonOut {
		buf, err := json.MarshalIndent(res.Report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "yosompc: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\n%s\n", buf)
	} else {
		fmt.Printf("\ncommunication:\n%s", res.Report.String())
		if m := circ.NumMul(); m > 0 {
			fmt.Printf("online per gate: %.1f B\n", res.Report.PerGate("online", m))
		}
	}
	if wrong != nil {
		os.Exit(1)
	}
}

// checkOutputs compares every client's outputs with the plaintext
// evaluation of circ on inputs.
func checkOutputs(circ *yosompc.Circuit, inputs, outputs map[int][]yosompc.Value) error {
	want, err := circ.Eval(inputs)
	if err != nil {
		return fmt.Errorf("plaintext evaluation: %w", err)
	}
	for _, client := range circ.Clients() {
		if !slices.Equal(outputs[client], want[client]) {
			return fmt.Errorf("client %d outputs %v, the plaintext evaluation gives %v", client, outputs[client], want[client])
		}
	}
	return nil
}

// loadWorkload parses a circuit file and synthesizes deterministic inputs.
func loadWorkload(path string) (*yosompc.Circuit, map[int][]yosompc.Value, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	circ, err := yosompc.ParseCircuit(f)
	if err != nil {
		return nil, nil, err
	}
	return circ, defaultInputsFor(circ), nil
}

func defaultInputsFor(circ *yosompc.Circuit) map[int][]yosompc.Value {
	inputs := map[int][]yosompc.Value{}
	for _, client := range circ.Clients() {
		count := circ.InputCount(client)
		vals := make([]yosompc.Value, count)
		for i := range vals {
			vals[i] = yosompc.NewValue(uint64(client*7 + i + 2))
		}
		inputs[client] = vals
	}
	return inputs
}

func buildWorkload(name string, size, depth int) (*yosompc.Circuit, map[int][]yosompc.Value, error) {
	var (
		circ *yosompc.Circuit
		err  error
	)
	switch name {
	case "inner-product":
		circ, err = yosompc.InnerProduct(size)
	case "poly-eval":
		circ, err = yosompc.PolyEval(size)
	case "matvec":
		circ, err = yosompc.MatVecMul(size)
	case "stats":
		circ, err = yosompc.Statistics(size)
	case "wide":
		circ, err = yosompc.WideMul(size, depth)
	case "random":
		circ, err = yosompc.RandomCircuit(size, size*4, 42)
	default:
		return nil, nil, fmt.Errorf("unknown circuit %q", name)
	}
	if err != nil {
		return nil, nil, err
	}
	return circ, defaultInputsFor(circ), nil
}
