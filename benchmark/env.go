package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"yosompc/internal/parallel"
)

// environment is the stamp every result file carries: numbers from two
// files compare only when the machine and build behind them are known.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Workers is what Params.Workers = 0 resolves to here.
	Workers int `json:"workers"`
	// Revision is the commit the binary was built from, with "+dirty"
	// when the tree had uncommitted changes; "unknown" outside git.
	Revision string `json:"revision"`
}

func stampEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    parallel.Normalize(0),
		Revision:   "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && env.Revision != "unknown" {
			env.Revision += "+dirty"
		}
	}
	return env
}

// cpuModel is the first "model name" of /proc/cpuinfo, "unknown" where
// there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}
