package main

import (
	"fmt"
	"sort"

	"yosompc/internal/telemetry"
)

// The traced iteration is read from outside: core names its spans
// (protocol → phase:* → step / committee:* → member) and the benchmark
// only aggregates the finished records. Step spans and the committee
// spans they drive are siblings under the phase span and overlap in time,
// which is why self time subtracts the *union* of the children.

// spanTree indexes one tracer's finished spans.
type spanTree struct {
	spans    []telemetry.SpanRecord
	children map[uint64][]telemetry.SpanRecord
}

func newSpanTree(spans []telemetry.SpanRecord) spanTree {
	t := spanTree{spans: spans, children: map[uint64][]telemetry.SpanRecord{}}
	for _, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	return t
}

// named returns every span called name.
func (t spanTree) named(name string) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// only returns the single span called name.
func (t spanTree) only(name string) (telemetry.SpanRecord, error) {
	found := t.named(name)
	if len(found) != 1 {
		return telemetry.SpanRecord{}, fmt.Errorf("trace has %d spans named %q, want 1", len(found), name)
	}
	return found[0], nil
}

// totalUS sums the durations of every span called name.
func (t spanTree) totalUS(name string) int64 {
	var us int64
	for _, s := range t.named(name) {
		us += s.DurUS
	}
	return us
}

// selfUS is the span's duration minus the part of it its direct children
// cover: the time no finer span accounts for.
func (t spanTree) selfUS(s telemetry.SpanRecord) int64 {
	return s.DurUS - coveredUS(s, t.children[s.ID])
}

// coveredUS is the length of the union of the children's intervals,
// clipped to the parent's interval.
func coveredUS(parent telemetry.SpanRecord, children []telemetry.SpanRecord) int64 {
	type interval struct{ from, to int64 }
	lo, hi := parent.StartUS, parent.StartUS+parent.DurUS
	var ivs []interval
	for _, c := range children {
		iv := interval{max(c.StartUS, lo), min(c.StartUS+c.DurUS, hi)}
		if iv.from < iv.to {
			ivs = append(ivs, iv)
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	var covered int64
	end := lo
	for _, iv := range ivs {
		if iv.to <= end {
			continue
		}
		covered += iv.to - max(iv.from, end)
		end = iv.to
	}
	return covered
}
