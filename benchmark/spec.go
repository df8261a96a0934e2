package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json: the one place that names the workloads
// and metrics, their units and directions, and the bound by which an
// end-to-end metric may worsen before it counts as a regression. The
// program reads units and bounds from it and holds no copy of its own.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is loaded once at start-up, before anything is measured; units
// maps every metric it defines to its unit.
var (
	spec  benchSpec
	units map[string]string
)

func loadSpec(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading the benchmark definition: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	units = map[string]string{}
	for _, defs := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
		for _, m := range defs {
			units[m.Name] = m.Unit
		}
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("%s names %d workloads, the program has %d", path, len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			return fmt.Errorf("%s workload %d is %q, the program's is %q", path, i, w.Name, workloads[i].Name)
		}
	}
	return nil
}

// checkNames reports the first metric the definition lists that got is
// missing, or that got holds and the definition does not.
func checkNames(defs []metricDef, got map[string]summary) error {
	for _, d := range defs {
		if _, ok := got[d.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	if len(got) != len(defs) {
		known := map[string]bool{}
		for _, d := range defs {
			known[d.Name] = true
		}
		for name := range got {
			if !known[name] {
				return fmt.Errorf("metric %s is not in the benchmark definition", name)
			}
		}
	}
	return nil
}
