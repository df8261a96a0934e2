package main

import (
	"fmt"
	"strings"
)

// endToEnd reduces a run's untraced iterations to the metrics a user of
// the protocol sees. Failed iterations are counted by the caller and
// contribute no samples. setup_s and peak_rss_mb are added by the process
// that can measure them.
func (b *bench) endToEnd(its []iteration) map[string]summary {
	var prepare, online, run, onlineBytes, offlineBytes []float64
	muls := float64(b.circ.NumMul())
	for _, it := range its {
		if it.failure != "" {
			continue
		}
		prepare = append(prepare, it.prepare.Seconds())
		online = append(online, it.online.Seconds())
		run = append(run, it.run().Seconds())
		onlineBytes = append(onlineBytes, float64(it.onlineBytes)/muls)
		offlineBytes = append(offlineBytes, float64(it.offlineBytes)/muls)
	}
	out := map[string]summary{}
	for name, samples := range map[string][]float64{
		"prepare_s":              prepare,
		"online_s":               online,
		"run_s":                  run,
		"online_bytes_per_gate":  onlineBytes,
		"offline_bytes_per_gate": offlineBytes,
	} {
		out[name] = summarize(units[name], samples)
	}
	return out
}

// stepSpans maps each per-step metric to the core span it is read from.
// The offline steps and the online steps tile their phase span; whatever
// they leave uncovered is the phase's self time.
var stepSpans = []struct{ metric, span string }{
	{"core.offline_beaver_s", "offline:beaver"},
	{"core.offline_wire_randomness_s", "offline:wire-randomness"},
	{"core.offline_dependent_wires_s", "offline:dependent-wires"},
	{"core.offline_packing_s", "offline:packing"},
	{"core.offline_reencrypt_s", "offline:reencrypt-to-kffs"},
	{"core.online_tsk_bridge_s", "committee:tsk-bridge"},
	{"core.online_kff_distribution_s", "committee:future-key-distribution"},
	{"core.online_input_s", "input"},
	{"core.online_mu_layers_s", "mu-layer"},
	{"core.online_output_s", "committee:output"},
}

// tracedValues reads one traced iteration's spans and registry.
func tracedValues(it iteration, workers int) (map[string]float64, error) {
	tree := newSpanTree(it.spans)
	if off, err := accountedUS(tree); err != nil {
		return nil, err
	} else if off > int64(len(it.spans)) {
		// One microsecond of rounding per span is the most that truncated
		// start and duration stamps can add up to.
		return nil, fmt.Errorf("step spans and self time miss the phase spans by %d µs", off)
	}
	seconds := func(us int64) float64 { return float64(us) / 1e6 }
	v := map[string]float64{}

	setup, err := tree.only("phase:setup")
	if err != nil {
		return nil, err
	}
	offline, err := tree.only("phase:offline")
	if err != nil {
		return nil, err
	}
	online, err := tree.only("phase:online")
	if err != nil {
		return nil, err
	}
	v["core.setup_s"] = seconds(setup.DurUS)
	for _, s := range stepSpans {
		v[s.metric] = seconds(tree.totalUS(s.span))
	}
	v["core.offline_self_s"] = seconds(tree.selfUS(offline))
	v["core.online_self_s"] = seconds(tree.selfUS(online))

	var members []float64
	for _, m := range tree.named("member") {
		members = append(members, float64(m.DurUS)/1e3)
	}
	// A committee waits for its slowest member, so the maximum is what a
	// step's time follows.
	ms := summarize("ms", members)
	v["core.member_p50_ms"], v["core.member_max_ms"] = ms.Value, ms.Max

	counter := func(name string) float64 { return float64(it.metrics.Counters[name]) }
	v["parallel.tasks"] = counter("core.pool.tasks")
	v["parallel.busy_share"] = ratio(counter("core.pool.busy_ns"), float64(workers)*float64(it.run().Nanoseconds()))
	hits, misses := counter("sharing.domain_cache_hits"), counter("sharing.domain_cache_misses")
	v["sharing.domain_cache_hit_ratio"] = ratio(hits, hits+misses)
	hits, misses = counter("modexp.table_cache_hits"), counter("modexp.table_cache_misses")
	v["modexp.table_cache_hit_ratio"] = ratio(hits, hits+misses)

	// Only a boardd workload has a server to instrument; elsewhere these
	// read zero.
	post := it.metrics.Histograms["transport.post_ns"]
	v["transport.post_p50_us"], v["transport.post_p99_us"] = post.P50/1e3, post.P99/1e3
	v["transport.tail_lag_max"] = float64(it.metrics.Gauges["transport.tail_lag_max"])
	return v, nil
}

// accountedUS is how far a traced iteration's step spans plus self times
// are from its offline and online phase spans, in microseconds. Self time
// is the remainder by definition, so anything but rounding means core's
// step spans overlap or a new child span sits outside all of them.
func accountedUS(tree spanTree) (int64, error) {
	var off int64
	for _, phase := range []string{"offline", "online"} {
		p, err := tree.only("phase:" + phase)
		if err != nil {
			return 0, err
		}
		left := p.DurUS - tree.selfUS(p)
		for _, s := range stepSpans {
			if strings.HasPrefix(s.metric, "core."+phase+"_") {
				left -= tree.totalUS(s.span)
			}
		}
		off += max(left, -left)
	}
	return off, nil
}

// perLayerFromRuns reduces the trace process's iterations to the
// trace-sourced per-layer metrics: spans and counters from the traced
// ones, resource use from the untraced ones, and what tracing cost as the
// difference between the two.
func perLayerFromRuns(untraced, traced []iteration, workers int) (map[string]summary, error) {
	out := map[string]summary{}

	samples := map[string][]float64{}
	var tracedRun []float64
	for _, it := range traced {
		if it.failure != "" {
			continue
		}
		vals, err := tracedValues(it, workers)
		if err != nil {
			return nil, err
		}
		for name, v := range vals {
			samples[name] = append(samples[name], v)
		}
		tracedRun = append(tracedRun, it.run().Seconds())
	}
	for name, s := range samples {
		out[name] = summarize(units[name], s)
	}

	var allocMB, allocsK, pauseMS, cpuS, run, posts, entries, mirrorErrs []float64
	for _, it := range untraced {
		if it.failure != "" {
			continue
		}
		allocMB = append(allocMB, float64(it.allocBytes)/(1<<20))
		allocsK = append(allocsK, float64(it.mallocs)/1e3)
		pauseMS = append(pauseMS, float64(it.gcPauseNS)/1e6)
		cpuS = append(cpuS, it.cpu.Seconds())
		run = append(run, it.run().Seconds())
		posts = append(posts, float64(it.boardPosts))
		entries = append(entries, float64(it.monitorEntries))
		mirrorErrs = append(mirrorErrs, float64(it.mirrorErrors))
	}
	for name, s := range map[string][]float64{
		"core.alloc_mb":           allocMB,
		"core.allocs_k":           allocsK,
		"core.gc_pause_ms":        pauseMS,
		"parallel.cpu_s":          cpuS,
		"transport.board_posts":   posts,
		"monitor.entries":         entries,
		"transport.mirror_errors": mirrorErrs,
	} {
		out[name] = summarize(units[name], s)
	}
	overhead := ratio(summarize("s", tracedRun).Value, summarize("s", run).Value)
	out["telemetry.overhead_pct"] = single(units["telemetry.overhead_pct"], (overhead-1)*100)
	return out, nil
}
