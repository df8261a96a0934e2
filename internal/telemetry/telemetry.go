// Package telemetry is the observability layer of the YOSO MPC stack:
// hierarchical wall-clock spans (protocol → phase → committee step → role
// or gate batch), a concurrent metrics registry, and exporters for JSONL,
// Chrome trace_event, and an HTTP exposition surface.
//
// Everything is stdlib-only and zero-cost when disabled: a nil *Tracer,
// *Span, *Registry, *Counter, *Gauge, or *Histogram is a valid no-op
// receiver, and none of the hot-path methods allocate when the receiver
// is nil (asserted by an AllocsPerRun test). Instrumented code therefore
// never guards a call site with an "enabled" branch — it just calls.
//
// Spans bridge into comm.Meter: a tracer bound to a meter snapshots it at
// span start and diffs at span end, so every span carries the bytes and
// postings the whole protocol put on the board while it was open.
//
// Security: span names, attribute keys/values, and metric names are
// disclosure surfaces — they end up in trace files, HTTP responses, and
// CI artifacts. The secretflow analyzer registers every emitting method
// of this package as a sink, so a Shamir share, key share, or partial
// decryption flowing into a label is a lint failure, not a leak.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"yosompc/internal/comm"
)

// Tracer collects completed spans. The zero value is not used; construct
// with NewTracer. A nil *Tracer is the disabled tracer: Start returns a
// nil *Span and no state is touched.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	done  []SpanRecord
	meter *comm.Meter
	proc  string
}

// NewTracer returns an empty tracer whose span timestamps are offsets
// from now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// BindMeter attaches a communication meter: from now on every span
// records the board bytes and postings accumulated between its Start and
// End. Bind before the first Start.
func (t *Tracer) BindMeter(m *comm.Meter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.meter = m
	t.mu.Unlock()
}

// SetProc names the OS process this tracer belongs to. The name and the
// tracer epoch land in the Chrome export's metadata, which is what lets a
// trace merge correlate spans from different processes via the board's
// shared timeline.
func (t *Tracer) SetProc(proc string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.proc = proc
	t.mu.Unlock()
}

// Proc returns the configured process name ("" on nil or when unset).
func (t *Tracer) Proc() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.proc
}

// EpochMicros returns the tracer epoch as Unix microseconds (0 on nil):
// span StartUS offsets plus this epoch are absolute poster-clock times.
func (t *Tracer) EpochMicros() int64 {
	if t == nil {
		return 0
	}
	return t.epoch.UnixMicro()
}

// Start opens a root span. On a nil tracer it returns nil, and every
// method of the nil span is a no-op.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, 0)
}

func (t *Tracer) newSpan(name string, parent uint64) *Span {
	s := &Span{
		tracer: t,
		id:     t.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  time.Now(),
		worker: -1,
	}
	t.mu.Lock()
	if t.meter != nil {
		s.startBytes = t.meter.Report()
		s.metered = true
	}
	t.mu.Unlock()
	return s
}

// Spans returns the completed spans in deterministic order (start time,
// then ID). Open spans are not included.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.done))
	copy(out, t.done)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUS != out[j].StartUS {
			return out[i].StartUS < out[j].StartUS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Span is one timed region of protocol work. Spans form a tree via Child.
// A span belongs to the goroutine that started it until End; End may be
// called from any goroutine, exactly once. All methods are no-ops on a
// nil receiver.
type Span struct {
	tracer     *Tracer
	id, parent uint64
	name       string
	start      time.Time
	startBytes comm.Report
	metered    bool
	worker     int
	ints       []intAttr
	strs       []strAttr
}

type intAttr struct {
	k string
	v int64
}

type strAttr struct {
	k, v string
}

// ID returns the span's tracer-unique ID; 0 for the nil span, so log
// events stamped with a span ID degrade cleanly when tracing is off.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Child opens a sub-span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(name, s.id)
}

// SetInt attaches an integer attribute. Fixed arity keeps the disabled
// path allocation-free (a variadic signature would build a slice at every
// call site before the nil check can run).
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.ints = append(s.ints, intAttr{key, v})
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.strs = append(s.strs, strAttr{key, v})
}

// SetWorker attributes the span to one worker slot of the parallel
// engine (0-based). Unattributed spans carry worker -1.
func (s *Span) SetWorker(w int) {
	if s == nil {
		return
	}
	s.worker = w
}

// End closes the span and files its record with the tracer.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.start.Sub(s.tracer.epoch).Microseconds(),
		DurUS:   end.Sub(s.start).Microseconds(),
		Worker:  s.worker,
	}
	if len(s.ints) > 0 {
		rec.Ints = make(map[string]int64, len(s.ints))
		for _, a := range s.ints {
			rec.Ints[a.k] = a.v
		}
	}
	if len(s.strs) > 0 {
		rec.Strs = make(map[string]string, len(s.strs))
		for _, a := range s.strs {
			rec.Strs[a.k] = a.v
		}
	}
	t := s.tracer
	t.mu.Lock()
	if s.metered && t.meter != nil {
		d := t.meter.Report().Diff(s.startBytes)
		rec.Bytes = d.Total
		rec.Postings = d.Postings
	}
	t.done = append(t.done, rec)
	t.mu.Unlock()
}

// SpanRecord is one completed span, shaped for JSONL export.
type SpanRecord struct {
	// ID is unique within the tracer; Parent is 0 for root spans.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartUS is microseconds since the tracer epoch; DurUS the span's
	// wall-clock duration in microseconds.
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
	// Worker is the parallel-engine slot the span ran on, -1 when the
	// span is not worker-attributed.
	Worker int `json:"worker"`
	// Bytes and Postings are the board traffic recorded while the span
	// was open (whole-protocol attribution via the bound comm.Meter).
	Bytes    int64             `json:"bytes,omitempty"`
	Postings int64             `json:"postings,omitempty"`
	Ints     map[string]int64  `json:"ints,omitempty"`
	Strs     map[string]string `json:"strs,omitempty"`
}
