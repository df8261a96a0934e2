package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"yosompc/internal/transport"
)

// Cross-process trace correlation: each process exports a Chrome trace
// whose timestamps are offsets from its own tracer epoch, on its own
// clock. The board provides the shared timeline — every entry carries the
// poster's send time (poster clock) and the board's receive time (board
// clock), so the per-process clock offset to the board is estimated as
// the median of RecvUS − PostUS over that process's posts, and every
// process's spans can be shifted onto board time. The merged document
// carries the board's own lane (instant events per entry) plus one
// process lane per input trace.

// Event is one Chrome trace_event record — the exported counterpart of
// the telemetry package's internal event type, shaped for reading trace
// files back and writing merged ones.
type Event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ProcessTrace is one process's parsed Chrome trace plus the metadata a
// process-attributed tracer stamps (telemetry.Tracer.SetProc): the process
// name and the tracer epoch in poster-clock Unix microseconds.
type ProcessTrace struct {
	Proc    string
	EpochUS int64
	Events  []Event
}

// ReadTraceFile parses a Chrome trace document written by a
// process-attributed tracer. It fails if the metadata block is missing —
// an unattributed trace cannot be placed on the shared timeline.
func ReadTraceFile(path string) (ProcessTrace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ProcessTrace{}, err
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
		Metadata    struct {
			Proc    string `json:"proc"`
			EpochUS int64  `json:"epoch_us"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return ProcessTrace{}, fmt.Errorf("monitor: parsing trace %s: %w", path, err)
	}
	if doc.Metadata.Proc == "" || doc.Metadata.EpochUS == 0 {
		return ProcessTrace{}, fmt.Errorf("monitor: trace %s has no process metadata; export it from a tracer with SetProc", path)
	}
	return ProcessTrace{Proc: doc.Metadata.Proc, EpochUS: doc.Metadata.EpochUS, Events: doc.TraceEvents}, nil
}

// MergedTrace is the combined cross-process document.
type MergedTrace struct {
	// Events is the merged event stream: pid 0 is the board lane, pids
	// 1..len(procs) the process lanes in input order. Offsets maps each
	// process name to its estimated clock offset (µs to add to poster
	// time to get board time).
	Events  []Event
	Offsets map[string]int64
}

// clockOffset estimates proc's clock offset to the board clock as the
// median of RecvUS − PostUS over its stamped entries.
func clockOffset(entries []transport.Entry, proc string) (int64, bool) {
	var deltas []int64
	for _, e := range entries {
		if e.Trace.Proc == proc && e.Trace.PostUS > 0 && e.Trace.RecvUS > 0 {
			deltas = append(deltas, e.Trace.RecvUS-e.Trace.PostUS)
		}
	}
	if len(deltas) == 0 {
		return 0, false
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i] < deltas[j] })
	return deltas[len(deltas)/2], true
}

// MergeTraces aligns the per-process traces onto the board timeline given
// the board's entries (from transport.Fetch or a completed tail) and
// returns one end-to-end document. Every process must have posted at
// least one stamped entry — without board samples there is nothing to
// align against.
func MergeTraces(entries []transport.Entry, procs []ProcessTrace) (*MergedTrace, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("monitor: no process traces to merge")
	}
	seen := map[string]bool{}
	offsets := map[string]int64{}
	for _, p := range procs {
		if p.Proc == "" {
			return nil, fmt.Errorf("monitor: process trace without a name")
		}
		if seen[p.Proc] {
			return nil, fmt.Errorf("monitor: duplicate process trace %q", p.Proc)
		}
		seen[p.Proc] = true
		off, ok := clockOffset(entries, p.Proc)
		if !ok {
			return nil, fmt.Errorf("monitor: no stamped board entries from process %q to align its clock", p.Proc)
		}
		offsets[p.Proc] = off
	}

	// base is the earliest instant on the board timeline, so merged
	// timestamps start near zero.
	base := int64(1<<63 - 1)
	for _, e := range entries {
		if e.Trace.RecvUS > 0 && e.Trace.RecvUS < base {
			base = e.Trace.RecvUS
		}
	}
	for _, p := range procs {
		off := offsets[p.Proc]
		for _, ev := range p.Events {
			if ts := p.EpochUS + ev.Ts + off; ts < base {
				base = ts
			}
		}
	}
	if base == 1<<63-1 {
		base = 0
	}

	mt := &MergedTrace{Offsets: offsets}
	mt.Events = append(mt.Events, Event{
		Name: "process_name", Ph: "M", Pid: 0, Args: map[string]any{"name": "board"},
	})
	sorted := append([]transport.Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	for _, e := range sorted {
		if e.Trace.RecvUS <= 0 {
			continue
		}
		args := map[string]any{"seq": e.Seq, "from": e.From, "bytes": e.Size}
		if e.Trace.Proc != "" {
			args["proc"] = e.Trace.Proc
		}
		if e.Trace.Span != 0 {
			args["span"] = e.Trace.Span
		}
		mt.Events = append(mt.Events, Event{
			Name: string(e.Category), Ph: "i", Ts: e.Trace.RecvUS - base, Pid: 0, Tid: 0, S: "t", Args: args,
		})
	}
	for i, p := range procs {
		pid := i + 1
		off := offsets[p.Proc]
		mt.Events = append(mt.Events, Event{
			Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": p.Proc},
		})
		for _, ev := range p.Events {
			shifted := ev
			shifted.Ts = p.EpochUS + ev.Ts + off - base
			shifted.Pid = pid
			mt.Events = append(mt.Events, shifted)
		}
	}
	return mt, nil
}

// Validate checks the merged document against the trace_event schema
// subset the repo emits: known phase kinds, non-negative aligned
// timestamps and durations, a process_name metadata record per lane, and
// board-lane instants monotone in document order (receive stamps are
// taken under the board's append lock, so any regression here is a merge
// bug, not clock noise).
func (mt *MergedTrace) Validate() error {
	named := map[int]bool{}
	lastBoard := int64(-1)
	for i, ev := range mt.Events {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				named[ev.Pid] = true
			}
			continue
		case "X", "i":
		default:
			return fmt.Errorf("monitor: event %d has unknown phase kind %q", i, ev.Ph)
		}
		if ev.Ts < 0 {
			return fmt.Errorf("monitor: event %d (%s) has negative aligned timestamp %d", i, ev.Name, ev.Ts)
		}
		if ev.Dur < 0 {
			return fmt.Errorf("monitor: event %d (%s) has negative duration %d", i, ev.Name, ev.Dur)
		}
		if ev.Ph == "i" && ev.Pid == 0 {
			if ev.Ts < lastBoard {
				return fmt.Errorf("monitor: board instants not monotone at event %d (%d after %d)", i, ev.Ts, lastBoard)
			}
			lastBoard = ev.Ts
		}
	}
	pids := map[int]bool{}
	for _, ev := range mt.Events {
		pids[ev.Pid] = true
	}
	for pid := range pids {
		if !named[pid] {
			return fmt.Errorf("monitor: lane %d has no process_name metadata", pid)
		}
	}
	return nil
}

// WriteTo writes the merged document in Chrome trace_event format.
func (mt *MergedTrace) WriteTo(w io.Writer) (int64, error) {
	doc := struct {
		TraceEvents     []Event        `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		Metadata        map[string]any `json:"metadata"`
	}{
		TraceEvents:     mt.Events,
		DisplayTimeUnit: "ms",
		Metadata:        map[string]any{"merged": true, "offsets_us": mt.Offsets},
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return 0, err
	}
	buf = append(buf, '\n')
	n, err := w.Write(buf)
	return int64(n), err
}

// WriteFile validates and writes the merged document to path.
func (mt *MergedTrace) WriteFile(path string) error {
	if err := mt.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = mt.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("monitor: write merged trace %s: %w", path, err)
	}
	return nil
}
