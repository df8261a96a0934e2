package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is what one end-to-end metric of one workload did between two
// result files.
type verdict string

const (
	// verdictOK: the new median is no worse than the old one by more than
	// the metric's bound, or every new sample is better than every old one.
	verdictOK verdict = "ok"
	// verdictRegressed: worse by more than the bound, and the samples are
	// tight enough to say so.
	verdictRegressed verdict = "regressed"
	// verdictUnresolved: the samples of one side spread wider than the
	// bound, so a difference of the bound's size cannot be told from noise.
	verdictUnresolved verdict = "unresolved"
)

// judge compares one metric. worse is the share of the old median by
// which the new median is worse (negative when it is better).
func judge(def metricDef, old, new summary) (worse float64, v verdict) {
	worse = ratio(new.Value-old.Value, old.Value)
	allBetter := new.Max < old.Min
	if def.Better == "higher" {
		worse = -worse
		allBetter = new.Min > old.Max
	}
	switch {
	case allBetter:
		return worse, verdictOK
	case old.spread() > def.Bound || new.spread() > def.Bound:
		return worse, verdictUnresolved
	case worse > def.Bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// compareFiles prints, for every workload and end-to-end metric, both
// medians, the new one as a ratio of the old one, and the verdict under
// the bound BENCHMARK.json fixes. It returns the process exit code: 1 on
// any regression or when a larger share of iterations failed, else 0.
func compareFiles(w io.Writer, oldPath, newPath string) (int, error) {
	oldFile, err := readResultFile(oldPath)
	if err != nil {
		return 0, err
	}
	newFile, err := readResultFile(newPath)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "old: %s  revision %s, %s, %s, %d CPUs\n", oldPath, oldFile.Environment.Revision,
		oldFile.Environment.GoVersion, oldFile.Environment.CPUModel, oldFile.Environment.NumCPU)
	fmt.Fprintf(w, "new: %s  revision %s, %s, %s, %d CPUs\n", newPath, newFile.Environment.Revision,
		newFile.Environment.GoVersion, newFile.Environment.CPUModel, newFile.Environment.NumCPU)
	code := 0
	for _, nw := range newFile.Workloads {
		var ow *workloadResult
		for i := range oldFile.Workloads {
			if oldFile.Workloads[i].Name == nw.Name {
				ow = &oldFile.Workloads[i]
			}
		}
		if ow == nil {
			fmt.Fprintf(w, "%s: not in %s\n", nw.Name, oldPath)
			continue
		}
		oldFailed, newFailed := ratio(float64(ow.Failed), float64(ow.Attempted)), ratio(float64(nw.Failed), float64(nw.Attempted))
		fmt.Fprintf(w, "%s: failed %d of %d, was %d of %d\n", nw.Name, nw.Failed, nw.Attempted, ow.Failed, ow.Attempted)
		if newFailed > oldFailed {
			fmt.Fprintf(w, "  a larger share of iterations failed: regressed\n")
			code = 1
		}
		for _, def := range spec.EndToEnd {
			o, haveOld := ow.EndToEnd[def.Name]
			n, haveNew := nw.EndToEnd[def.Name]
			if !haveOld || !haveNew {
				fmt.Fprintf(w, "  %-24s missing from one file\n", def.Name)
				continue
			}
			worse, v := judge(def, o, n)
			fmt.Fprintf(w, "  %-24s old %12.6g new %12.6g %-4s new/old %.4f  worse by %+6.2f%% of old, bound %.1f%%  %s\n",
				def.Name, o.Value, n.Value, def.Unit, ratio(n.Value, o.Value), worse*100, def.Bound*100, v)
			if v == verdictRegressed {
				code = 1
			}
		}
	}
	return code, nil
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &file, nil
}
