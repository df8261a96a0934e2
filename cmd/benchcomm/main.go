// Command benchcomm reproduces the paper's quantitative content: Table 1
// and the communication claims derived from it (EXPERIMENTS.md), one table
// per entry of bench.Experiments. The output is deterministic;
// wall-clock questions belong to benchmark/run.sh.
//
// Usage:
//
//	benchcomm                      # every experiment
//	benchcomm -experiment online   # just E1
package main

import (
	"flag"
	"fmt"
	"os"

	"yosompc/internal/bench"
)

func main() {
	usage := "all"
	for _, e := range bench.Experiments {
		usage += " | " + e.Name
	}
	experiment := flag.String("experiment", "all", usage)
	flag.Parse()

	exps, err := bench.Select(*experiment)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcomm: %v\n", err)
		os.Exit(2)
	}
	if err := bench.Write(os.Stdout, exps); err != nil {
		fmt.Fprintf(os.Stderr, "benchcomm: %v\n", err)
		os.Exit(1)
	}
}
